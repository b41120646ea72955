# Determinism contract test, run via `cmake -P`: the same command must
# produce byte-identical stdout AND stderr for every --jobs value, all
# compared against the first run.
#
# Arguments (all -D):
#   BINARY   path to the executable under test
#   ARGS     semicolon-separated argument list (without --jobs)
#   JOBS     semicolon-separated --jobs values to compare (e.g. "1;2;8")
if(NOT DEFINED BINARY OR NOT DEFINED JOBS)
  message(FATAL_ERROR "determinism_test.cmake needs -DBINARY and -DJOBS")
endif()

set(have_reference FALSE)
foreach(jobs ${JOBS})
  execute_process(
    COMMAND ${BINARY} ${ARGS} --jobs ${jobs}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "'${BINARY}' failed with '${rc}' at --jobs ${jobs}."
        "\nstderr:\n${err}")
  endif()
  if(NOT have_reference)
    set(have_reference TRUE)
    set(ref_jobs ${jobs})
    set(ref_out "${out}")
    set(ref_err "${err}")
  else()
    if(NOT out STREQUAL ref_out)
      message(FATAL_ERROR
          "stdout differs between --jobs ${ref_jobs} and --jobs ${jobs}")
    endif()
    if(NOT err STREQUAL ref_err)
      message(FATAL_ERROR
          "stderr differs between --jobs ${ref_jobs} and --jobs ${jobs}")
    endif()
  endif()
endforeach()
