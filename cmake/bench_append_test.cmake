# Append-path test for bench_compile_hotpath, run via `cmake -P`: copy a
# checked-in BENCH_compile.json into the build tree, append one labelled
# run to the copy, and require every earlier row byte-identical and every
# new row to carry a speedup_vs delta against its predecessor.
#
# Arguments (all -D):
#   BINARY    path to bench_compile_hotpath
#   ARGS      semicolon-separated argument list (without --label/--out)
#   SOURCE    the checked-in BENCH_compile.json
#   OUT       the copy to append to
#   LABEL     label of the appended rows
#   NEW_ROWS  required number of appended rows
cmake_minimum_required(VERSION 3.19)  # string(JSON)

file(READ "${SOURCE}" before)
file(WRITE "${OUT}" "${before}")

execute_process(
  COMMAND ${BINARY} ${ARGS} --label ${LABEL} --out ${OUT}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_compile_hotpath exited with '${rc}'.\n"
      "stdout:\n${out}\nstderr:\n${err}")
endif()

file(READ "${OUT}" after)
string(JSON old_count LENGTH "${before}" rows)
string(JSON new_count LENGTH "${after}" rows)
math(EXPR appended "${new_count} - ${old_count}")
if(NOT appended EQUAL NEW_ROWS)
  message(FATAL_ERROR "appended ${appended} rows, expected ${NEW_ROWS}")
endif()

# The writer re-renders the file, so the earlier rows are unchanged exactly
# when the new file starts with the old one minus its closing "]" and "}".
string(REGEX REPLACE "\n  \\]\n}\n$" "" old_prefix "${before}")
string(LENGTH "${old_prefix}" prefix_length)
string(SUBSTRING "${after}" 0 ${prefix_length} new_prefix)
if(NOT new_prefix STREQUAL old_prefix)
  message(FATAL_ERROR "the ${old_count} earlier rows changed")
endif()

math(EXPR last "${new_count} - 1")
foreach(i RANGE ${old_count} ${last})
  string(JSON label GET "${after}" rows ${i} label)
  string(JSON delta_type ERROR_VARIABLE missing
      TYPE "${after}" rows ${i} speedup_vs)
  if(NOT label STREQUAL LABEL OR NOT delta_type STREQUAL "OBJECT")
    message(FATAL_ERROR "row ${i} (label '${label}') has no speedup_vs")
  endif()
endforeach()
