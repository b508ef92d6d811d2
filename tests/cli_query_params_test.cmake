# `karl query`, `karl tune` and `karl remote-query` must refuse an --eps
# that is not a finite number > 0 (0, -1, inf, nan), and a --tau that is
# not finite (nan, inf), with exit status 1 and a message naming the
# flag, instead of aborting in the engine or answering every row
# "below". The same commands with a valid flag must still run, so the
# refusals are not a broken model's doing.
#
#   cmake -DKARL=<karl binary> -DWORK_DIR=<scratch dir> \
#         -P cli_query_params_test.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# A 500-row, 3-column data set on a deterministic lattice, and 4 queries.
set(data "${WORK_DIR}/data.csv")
set(rows "")
foreach(i RANGE 499)
  math(EXPR a "${i} % 10")
  math(EXPR b "(${i} / 10) % 10")
  math(EXPR c "(${i} * 7) % 10")
  string(APPEND rows "0.${a}1,0.${b}3,0.${c}7\n")
endforeach()
file(WRITE "${data}" "${rows}")
set(queries "${WORK_DIR}/queries.csv")
file(WRITE "${queries}" "0.11,0.23,0.37\n0.51,0.53,0.57\n0.91,0.03,0.47\n0.31,0.83,0.17\n")
set(model "${WORK_DIR}/model.snap")
execute_process(
  COMMAND "${KARL}" build --data "${data}" --out "${model}"
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "build failed (${status}): ${out}${err}")
endif()

# Runs `karl <args>` and requires exit status 1 with `flag` in stderr.
function(expect_refused flag)
  execute_process(
    COMMAND "${KARL}" ${ARGN}
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 1)
    message(FATAL_ERROR "karl ${ARGN} exited ${status}, want 1:\n${out}${err}")
  endif()
  if(NOT err MATCHES "flag ${flag} expects a finite number")
    message(FATAL_ERROR "karl ${ARGN} failed with the wrong error: ${err}")
  endif()
endfunction()

# Runs `karl <args>` and requires exit status 0.
function(expect_ok)
  execute_process(
    COMMAND "${KARL}" ${ARGN}
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "karl ${ARGN} exited ${status}, want 0:\n${out}${err}")
  endif()
endfunction()

foreach(eps 0 -1 inf nan)
  expect_refused(--eps query --model "${model}" --queries "${queries}"
                 --eps ${eps})
  expect_refused(--eps tune --data "${data}" --queries "${queries}"
                 --eps ${eps})
  expect_refused(--eps remote-query --port 1 --queries "${queries}"
                 --eps ${eps})
endforeach()
foreach(tau nan inf -inf)
  expect_refused(--tau query --model "${model}" --queries "${queries}"
                 --tau ${tau})
  expect_refused(--tau tune --data "${data}" --queries "${queries}"
                 --tau ${tau})
  expect_refused(--tau remote-query --port 1 --queries "${queries}"
                 --tau ${tau})
endforeach()

expect_ok(query --model "${model}" --queries "${queries}" --eps 0.1)
expect_ok(query --model "${model}" --queries "${queries}" --tau 0.5)
file(REMOVE_RECURSE "${WORK_DIR}")
