# Smoke for the telemetry-overhead comparison path: run the
# WOT_TELEMETRY_OFF twin, feed its report into the instrumented binary
# via --off_report, and require the telemetry_overhead_* fields in the
# combined report. Tiny workload — this checks plumbing, not numbers.
execute_process(
  COMMAND ${MICRO_SERVICE_OFF} --users 80 --queries 500
          --json ${WORK_DIR}/BENCH_service_off_smoke.json
  RESULT_VARIABLE off_result)
if(NOT off_result EQUAL 0)
  message(FATAL_ERROR "micro_service_off failed: ${off_result}")
endif()

execute_process(
  COMMAND ${MICRO_SERVICE} --users 80 --queries 500
          --off_report ${WORK_DIR}/BENCH_service_off_smoke.json
          --json ${WORK_DIR}/BENCH_service_overhead_smoke.json
  RESULT_VARIABLE on_result)
if(NOT on_result EQUAL 0)
  message(FATAL_ERROR "micro_service --off_report failed: ${on_result}")
endif()

file(READ ${WORK_DIR}/BENCH_service_overhead_smoke.json combined)
foreach(field
    telemetry_off_roundtrip_us_binary
    telemetry_overhead_roundtrip_pct)
  if(NOT combined MATCHES "${field}")
    message(FATAL_ERROR "missing ${field} in combined report: ${combined}")
  endif()
endforeach()
