# Malformed numeric flags make holix_server print its usage and exit 2
# before it loads or binds anything; --help exits 0.
#
#   cmake -DSERVER=<path to holix_server> -P holix_server_flags_test.cmake

if(NOT SERVER)
  message(FATAL_ERROR "pass -DSERVER=<path to holix_server>")
endif()

function(expect_exit code)
  execute_process(COMMAND ${SERVER} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 20)
  if(NOT rc STREQUAL "${code}")
    message(FATAL_ERROR "holix_server ${ARGN}: exit '${rc}', want ${code}\n${err}")
  endif()
  if(NOT err MATCHES "usage: holix_server")
    message(FATAL_ERROR "holix_server ${ARGN}: no usage on stderr\n${err}")
  endif()
endfunction()

expect_exit(2 --port 70000)
expect_exit(2 --port abc)
expect_exit(2 --port -1)
expect_exit(2 --metrics-port 65536)
expect_exit(2 --rows x)
expect_exit(2 --rows 10x)
expect_exit(2 --attrs -2)
expect_exit(2 --threads 1.5)
expect_exit(2 --io-threads " 2")
expect_exit(2 --seed 18446744073709551616)
expect_exit(2 --checkpoint-interval 5s)
expect_exit(2 --no-shared-scans)
expect_exit(0 --help)
