# Runs BIN with its default arguments and fails unless its stdout equals
# the GOLDEN file byte for byte. On a mismatch the actual output is written
# to ACTUAL for `diff -u GOLDEN ACTUAL`.
#   cmake -DBIN=<exe> -DGOLDEN=<file> -DACTUAL=<file> -P check_golden.cmake
execute_process(COMMAND "${BIN}" OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
file(READ "${GOLDEN}" want)
if(NOT out STREQUAL want)
  file(WRITE "${ACTUAL}" "${out}")
  message(FATAL_ERROR "output differs from the golden table: "
                      "diff -u ${GOLDEN} ${ACTUAL}")
endif()
