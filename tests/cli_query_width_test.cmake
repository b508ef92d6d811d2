# `karl query` must refuse a query file whose width is not the model's,
# naming the file and both widths, and exit non-zero: a narrower row
# would be read past its end, a wider one silently cut short. A query
# file of the model's width must still answer, so the refusals are not a
# broken model's doing.
#
#   cmake -DKARL=<karl binary> -DWORK_DIR=<scratch dir> \
#         -P cli_query_width_test.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(data "${WORK_DIR}/data.csv")
file(WRITE "${data}"
     "0.1,0.2,0.3\n0.4,0.5,0.6\n0.7,0.8,0.9\n0.2,0.4,0.6\n0.3,0.1,0.5\n")
set(model "${WORK_DIR}/model.snap")
execute_process(
  COMMAND "${KARL}" build --data "${data}" --out "${model}"
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "build failed (${status}): ${out}${err}")
endif()

foreach(width 2 3 4)
  set(queries "${WORK_DIR}/q${width}.csv")
  if(width EQUAL 2)
    file(WRITE "${queries}" "0.1,0.2\n0.3,0.4\n")
  elseif(width EQUAL 3)
    file(WRITE "${queries}" "0.1,0.2,0.3\n0.3,0.4,0.5\n")
  else()
    file(WRITE "${queries}" "0.1,0.2,0.3,0.4\n0.3,0.4,0.5,0.6\n")
  endif()
  execute_process(
    COMMAND "${KARL}" query --model "${model}" --queries "${queries}"
            --eps 0.1
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(width EQUAL 3)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR "a query file of the model's width failed "
                          "(${status}): ${err}")
    endif()
    continue()
  endif()
  if(status EQUAL 0)
    message(FATAL_ERROR "a ${width}-column query file was accepted:\n${out}")
  endif()
  if(NOT err MATCHES "q${width}.csv has ${width} columns, but the model has 3 dimensions")
    message(FATAL_ERROR "${width} columns failed with the wrong error: ${err}")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
