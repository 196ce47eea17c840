# Runs EXE with one argument ARG in an empty directory WORKDIR, then
# requires exit status 2, "usage:" on stderr, and WORKDIR still empty: a
# tool that rejects its arguments must do so before it runs or writes
# anything.
#
#   cmake -DEXE=... -DARG=... -DWORKDIR=... -P usage_exit.cmake
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${EXE}" "${ARG}" WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${EXE} ${ARG} exited with '${rc}', expected 2")
endif()
string(FIND "${err}" "usage:" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${EXE} ${ARG}: no usage on stderr: '${err}'")
endif()
file(GLOB left "${WORKDIR}/*")
if(left)
  message(FATAL_ERROR "${EXE} ${ARG} wrote ${left}")
endif()
file(REMOVE_RECURSE "${WORKDIR}")
