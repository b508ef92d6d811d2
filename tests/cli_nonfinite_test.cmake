# `karl build` must refuse a data file with a non-finite cell (nan, inf,
# or a value that overflows a double) at the reader, name its line, exit
# non-zero and leave no --out file, nor a temporary beside it. The same
# file with the cell made finite must still build, so the refusals are
# not a broken input's doing.
#
#   cmake -DKARL=<karl binary> -DWORK_DIR=<scratch dir> \
#         -P cli_nonfinite_test.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(rows "0.1,0.2,0.3\n0.4,0.5,0.6\n0.7,0.8,0.9\n0.2,0.4,0.6\n")

foreach(cell nan inf -inf 1e999 1e-999)
  set(data "${WORK_DIR}/data.csv")
  file(WRITE "${data}" "${rows}0.3,${cell},0.5\n0.6,0.6,0.1\n")
  set(model "${WORK_DIR}/model.snap")
  execute_process(
    COMMAND "${KARL}" build --data "${data}" --out "${model}"
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  file(GLOB left "${WORK_DIR}/model.snap*")
  if(cell STREQUAL "1e-999")
    # Underflow to 0 is a finite value: it builds.
    if(NOT status EQUAL 0 OR NOT EXISTS "${model}")
      message(FATAL_ERROR "underflowing cell ${cell} failed (${status}): "
                          "${err}")
    endif()
    file(REMOVE "${model}")
    continue()
  endif()
  if(status EQUAL 0)
    message(FATAL_ERROR "cell ${cell} was accepted:\n${out}${err}")
  endif()
  if(NOT err MATCHES "line 5: non-finite value")
    message(FATAL_ERROR "cell ${cell} failed with the wrong error: ${err}")
  endif()
  if(left)
    message(FATAL_ERROR "cell ${cell} left ${left}")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
