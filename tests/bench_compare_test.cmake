# tools/bench_compare.py gates answers as well as times: a fresh checksum
# equal to its baseline passes (exit 0), a changed one fails (exit 1) even
# when every timing is within the threshold.
#
#   cmake -DPYTHON=<python3> -DTOOL=<bench_compare.py> \
#         -DFIXTURES=<tests/bench_compare> -P bench_compare_test.cmake

foreach(var PYTHON TOOL FIXTURES)
  if(NOT ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

function(expect_exit code fig)
  execute_process(
    COMMAND ${PYTHON} ${TOOL} --baseline ${FIXTURES}/baseline
            --fresh ${FIXTURES}/fresh --figs ${fig} --threshold 3.0
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 30)
  if(NOT rc STREQUAL "${code}")
    message(FATAL_ERROR "bench_compare --figs ${fig}: exit '${rc}', want "
                        "${code}\n${out}${err}")
  endif()
  set(last_err "${err}" PARENT_SCOPE)
endfunction()

expect_exit(0 same)
expect_exit(1 changed)
if(NOT last_err MATCHES "cut checksum")
  message(FATAL_ERROR "the failure does not name the checksum column:\n"
                      "${last_err}")
endif()
