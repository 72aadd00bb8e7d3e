# A malformed --port makes holix_cli print its usage and exit 2 before it
# dials anything (the whole token must parse as a port in [1, 65535]);
# --help exits 0.
#
#   cmake -DCLI=<path to holix_cli> -P holix_cli_flags_test.cmake

if(NOT CLI)
  message(FATAL_ERROR "pass -DCLI=<path to holix_cli>")
endif()

function(expect_exit code)
  execute_process(COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 20)
  if(NOT rc STREQUAL "${code}")
    message(FATAL_ERROR "holix_cli ${ARGN}: exit '${rc}', want ${code}\n${err}")
  endif()
  if(NOT err MATCHES "usage: holix_cli")
    message(FATAL_ERROR "holix_cli ${ARGN}: no usage on stderr\n${err}")
  endif()
endfunction()

expect_exit(2 --port 70000)
expect_exit(2 --port -1)
expect_exit(2 --port 12ab)
expect_exit(2 --port 0)
expect_exit(0 --help)
