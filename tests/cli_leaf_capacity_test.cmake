# `karl build` must refuse a --leaf-capacity below 1 with the library's
# "leaf capacity must be >= 1" and write no snapshot; a negative value
# must not wrap to a one-leaf model. A valid capacity on the same data
# must still build, so the refusals are not a broken input's doing.
#
#   cmake -DKARL=<karl binary> -DWORK_DIR=<scratch dir> \
#         -P cli_leaf_capacity_test.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(data "${WORK_DIR}/home.csv")
execute_process(
  COMMAND "${KARL}" generate --dataset home --n 2000 --out "${data}"
  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "karl generate failed (${status}): ${err}")
endif()

foreach(capacity -1 0 -80)
  set(model "${WORK_DIR}/cap${capacity}.snap")
  execute_process(
    COMMAND "${KARL}" build --data "${data}" --out "${model}"
            --leaf-capacity ${capacity}
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(status EQUAL 0)
    message(FATAL_ERROR
            "--leaf-capacity ${capacity} was accepted:\n${out}${err}")
  endif()
  if(NOT err MATCHES "leaf capacity must be >= 1")
    message(FATAL_ERROR
            "--leaf-capacity ${capacity} failed with the wrong error: ${err}")
  endif()
  if(EXISTS "${model}")
    message(FATAL_ERROR "--leaf-capacity ${capacity} wrote ${model}")
  endif()
endforeach()

execute_process(
  COMMAND "${KARL}" build --data "${data}" --out "${WORK_DIR}/cap40.snap"
          --leaf-capacity 40
  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT status EQUAL 0 OR NOT EXISTS "${WORK_DIR}/cap40.snap")
  message(FATAL_ERROR "--leaf-capacity 40 failed (${status}): ${err}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
