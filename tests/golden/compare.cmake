# Run one bench or example and byte-compare its output against a
# committed golden.
#
#   cmake -DBENCH=<exe> -DARGS="<space-separated flags>"
#         -DGOLDEN=<file> -DOUT=<file> [-DSTDOUT=ON] -P compare.cmake
#
# By default the program writes --csv ${OUT}, and its stdout is
# discarded. With STDOUT set it gets no --csv flag and its stdout is
# the compared output (the examples print their report there).
#
# The CSVs are exact (integers, doubles in %.17g round-trip form), and
# the examples print fixed-precision tables, so any difference is a
# changed simulated result. stderr (wall-clock timing) is never
# compared.
separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
if(STDOUT)
  execute_process(COMMAND ${BENCH} ${bench_args}
                  OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
else()
  execute_process(COMMAND ${BENCH} ${bench_args} --csv ${OUT}
                  OUTPUT_QUIET RESULT_VARIABLE rc)
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the golden ${GOLDEN}")
endif()
