# Runs EXE with the optional argument list ARGS, then requires a non-zero
# exit status (a signal does not count) and MESSAGE on stderr: a program
# that refuses its input must say why and fail, not run on a changed value.
#
#   cmake -DEXE=... [-DARGS=...] -DMESSAGE=... -P error_exit.cmake
execute_process(COMMAND "${EXE}" ${ARGS} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc MATCHES "^[0-9]+$" OR rc STREQUAL "0")
  message(FATAL_ERROR "${EXE} ${ARGS} exited with '${rc}', expected a non-zero status")
endif()
string(FIND "${err}" "${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${EXE} ${ARGS}: stderr lacks '${MESSAGE}': '${err}'")
endif()
