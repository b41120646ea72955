# Exit-code/stderr contract test for a command-line binary (qfsc, qfsd, a
# bench), run via `cmake -P`.
#
# Arguments (all -D):
#   BINARY        path to the binary under test
#   ARGS          semicolon-separated argument list
#   EXPECT_EXIT   required exit code
#   EXPECT_STDERR regex that must match stderr
#   EXPECT_STDOUT optional regex that must match stdout (lint diagnostics)
#   FIXTURE       optional checked-in file, copied to FIXTURE_COPY before
#                 the run; FIXTURE_COPY must still equal it afterwards (a
#                 refused write leaves the file alone)
#
# ctest's WILL_FAIL/PASS_REGULAR_EXPRESSION cannot express "this exact
# nonzero exit code AND this stderr text", which is precisely the CLI
# contract on invalid input — hence this script.
if(NOT DEFINED BINARY OR NOT DEFINED EXPECT_EXIT)
  message(FATAL_ERROR "contract_test.cmake needs -DBINARY and -DEXPECT_EXIT")
endif()
get_filename_component(name "${BINARY}" NAME)

if(DEFINED FIXTURE)
  file(READ "${FIXTURE}" fixture_bytes)
  file(WRITE "${FIXTURE_COPY}" "${fixture_bytes}")
endif()

execute_process(
  COMMAND ${BINARY} ${ARGS}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

if(NOT rc EQUAL ${EXPECT_EXIT})
  message(FATAL_ERROR
      "${name} exited with '${rc}', expected '${EXPECT_EXIT}'.\n"
      "stderr:\n${err}")
endif()

if(DEFINED EXPECT_STDERR AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR
      "${name} stderr does not match '${EXPECT_STDERR}'.\nstderr:\n${err}")
endif()

if(DEFINED EXPECT_STDOUT AND NOT out MATCHES "${EXPECT_STDOUT}")
  message(FATAL_ERROR
      "${name} stdout does not match '${EXPECT_STDOUT}'.\nstdout:\n${out}")
endif()

if(DEFINED FIXTURE)
  file(READ "${FIXTURE_COPY}" copy_bytes)
  if(NOT copy_bytes STREQUAL fixture_bytes)
    message(FATAL_ERROR "${name} changed ${FIXTURE_COPY}")
  endif()
endif()
