# Runs EXE (with the optional argument list ARGS) to exit with stdout
# redirected to OUT, then requires exit status 0 and an output file whose
# last line is complete (newline-terminated) and contains LAST_LINE. A crash
# in static destructors shows up here as a signal exit, and as a truncated
# file when the stdout buffer is never flushed.
#
#   cmake -DEXE=... [-DARGS=...] -DOUT=... -DLAST_LINE=... -P exit_clean.cmake
execute_process(COMMAND "${EXE}" ${ARGS} OUTPUT_FILE "${OUT}"
                RESULT_VARIABLE rc)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${EXE} exited with '${rc}', expected 0")
endif()
file(READ "${OUT}" output)
string(REGEX MATCH "[^\n]*\n$" last_line "${output}")
if(last_line STREQUAL "")
  message(FATAL_ERROR "${OUT}: last line is not newline-terminated")
endif()
string(FIND "${last_line}" "${LAST_LINE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${OUT}: last line '${last_line}' lacks '${LAST_LINE}'")
endif()
