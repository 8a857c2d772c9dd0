# Rerun one coverage_sweep configuration and byte-compare its CSV with the
# committed golden file, so any change to a verdict, a count or the CSV
# layout of the sa model shows up as a failing test.
#
#   cmake -DSWEEP=<coverage_sweep> -DGOLDEN=<golden.csv> -DOUT=<scratch.csv>
#         "-DARGS=--smoke;--overflow;saturate" -P compare_sweep.cmake
#
# Regenerate a golden only for an intended behaviour change: run the same
# arguments with `--csv tests/golden/<name>.csv` and commit the result.
foreach(var SWEEP GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_sweep.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(
  COMMAND ${SWEEP} ${ARGS} --csv ${OUT}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "coverage_sweep ${ARGS} exited with ${rc}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the golden ${GOLDEN}")
endif()
