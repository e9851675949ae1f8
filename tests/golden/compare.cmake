# Run one bench and byte-compare its CSV against a committed golden.
#
#   cmake -DBENCH=<exe> -DARGS="<space-separated flags>"
#         -DGOLDEN=<file> -DOUT=<file> -P compare.cmake
#
# The CSVs are exact (integers, doubles in %.17g round-trip form), so
# any difference is a changed simulated result.
separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BENCH} ${bench_args} --csv ${OUT}
                OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the golden ${GOLDEN}")
endif()
