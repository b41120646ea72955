# Chaos contract: a seeded fault storm (worker SIGKILLs, hung-worker
# injections, hostile frames, mid-write disconnects) against a supervised
# daemon must lose zero accepted requests — every request gets exactly one
# well-formed response and the daemon never exits.  Afterwards, warm
# retried results must stay byte-identical to offline `qfsc --emit-json`.
#
# The storm is `qfsd_loadgen --chaos`.
#
# Expects: -DQFSC=<qfsc> -DQFSD=<qfsd> -DLOADGEN=<qfsd_loadgen>
#          -DINPUTS=<qasm;files> -DSEED=<n>
if(NOT DEFINED SEED)
  set(SEED 2022)
endif()

execute_process(
  COMMAND ${LOADGEN} --chaos --spawn ${QFSD} --seed ${SEED}
          --clients 8 --requests 120
          --spawn-arg --worker-procs --spawn-arg 2
          --deadline-ms 8000 --retries 4
          ${INPUTS}
  OUTPUT_VARIABLE chaos_out
  ERROR_VARIABLE chaos_err
  RESULT_VARIABLE chaos_rc)
message(STATUS "qfsd_loadgen --chaos output:\n${chaos_out}\n${chaos_err}")
if(NOT chaos_rc EQUAL 0)
  message(FATAL_ERROR
    "qfsd_loadgen --chaos contract violated (exit ${chaos_rc}):\n"
    "${chaos_out}\n${chaos_err}")
endif()

# Byte-identity after chaos: a fresh supervised daemon (retries enabled,
# same worker count) must return metrics documents byte-identical to the
# offline compiler for every input.
foreach(input ${INPUTS})
  execute_process(
    COMMAND ${QFSC} --emit-json ${input}
    OUTPUT_VARIABLE offline_out
    ERROR_VARIABLE offline_err
    RESULT_VARIABLE offline_rc)
  if(NOT offline_rc EQUAL 0)
    message(FATAL_ERROR
      "qfsc failed on ${input} (exit ${offline_rc}):\n${offline_err}")
  endif()

  execute_process(
    COMMAND ${LOADGEN} --spawn ${QFSD}
            --spawn-arg --worker-procs --spawn-arg 2
            --retries 3 --once ${input}
    OUTPUT_VARIABLE daemon_out
    ERROR_VARIABLE daemon_err
    RESULT_VARIABLE daemon_rc)
  if(NOT daemon_rc EQUAL 0)
    message(FATAL_ERROR
      "supervised qfsd_loadgen --once failed on ${input} "
      "(exit ${daemon_rc}):\n${daemon_err}")
  endif()

  if(NOT offline_out STREQUAL daemon_out)
    message(FATAL_ERROR
      "supervised daemon metrics differ from offline qfsc for ${input}:\n"
      "--- qfsc ---\n${offline_out}\n--- daemon ---\n${daemon_out}")
  endif()
endforeach()
message(STATUS "chaos contract held; supervised outputs byte-identical")
