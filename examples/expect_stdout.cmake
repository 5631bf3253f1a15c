# Runs one example and fails unless it exits with status 0 and prints
# exactly the committed stdout. On a mismatch the output is kept beside the
# build for a diff.
#
#   cmake -DEXE=<program> [-DARGS=<arguments>] -DEXPECTED=<file>
#         -DACTUAL=<file> -P expect_stdout.cmake
cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND ${EXE} ${ARGS}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with status ${status}")
endif()
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${ACTUAL} "${actual}")
  message(FATAL_ERROR "stdout differs from ${EXPECTED}; "
                      "diff it with ${ACTUAL}")
endif()
