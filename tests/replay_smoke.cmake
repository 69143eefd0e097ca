# End-to-end replay smoke: dike_run records rolling checkpoints during a
# run, a resumed run must produce a byte-identical report, dike_diff must
# see two same-config checkpoints as identical and a different-seed pair
# as divergent, and malformed inputs must fail loudly.
#
# Invoked by ctest (see tests/CMakeLists.txt) with:
#   -DDIKE_RUN=<dike_run binary> -DDIKE_DIFF=<dike_diff binary>
#   -DCONFIG=<replay_smoke.json> -DWORK_DIR=<scratch dir>
foreach(var DIKE_RUN DIKE_DIFF CONFIG WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "replay_smoke.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(CKPT_A "${WORK_DIR}/a.ckpt")
set(CKPT_B "${WORK_DIR}/b.ckpt")
set(CKPT_SEED "${WORK_DIR}/seeded.ckpt")
set(FULL "${WORK_DIR}/full.json")
set(AGAIN "${WORK_DIR}/again.json")
set(RESUMED "${WORK_DIR}/resumed.json")

function(run_step)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    list(JOIN ARGN " " pretty)
    message(FATAL_ERROR "step failed (exit ${code}): ${pretty}")
  endif()
endfunction()

# Same config twice: two checkpoint files that must not diverge.
run_step("${DIKE_RUN}" "${CONFIG}"
         --checkpoint-out "${CKPT_A}" --checkpoint-every 2 --json "${FULL}")
run_step("${DIKE_RUN}" "${CONFIG}"
         --checkpoint-out "${CKPT_B}" --checkpoint-every 2 --json "${AGAIN}")
foreach(artifact CKPT_A CKPT_B FULL AGAIN)
  if(NOT EXISTS "${${artifact}}")
    message(FATAL_ERROR "dike_run did not write ${${artifact}}")
  endif()
endforeach()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${FULL}" "${AGAIN}"
                RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "two identical-config runs produced different reports")
endif()

run_step("${DIKE_DIFF}" "${CKPT_A}" "${CKPT_B}")

# Resuming from the rolling checkpoint must reproduce the full report.
run_step("${DIKE_RUN}" --resume-from "${CKPT_A}" --json "${RESUMED}")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${FULL}" "${RESUMED}"
                RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "resumed run report differs from the uninterrupted run")
endif()

# A different seed must diverge, and dike_diff must say so (exit 1).
file(READ "${CONFIG}" cfg)
string(REPLACE "\"seed\": 7" "\"seed\": 8" reseeded "${cfg}")
if(reseeded STREQUAL cfg)
  message(FATAL_ERROR "could not reseed ${CONFIG}; expected '\"seed\": 7'")
endif()
file(WRITE "${WORK_DIR}/seed8.json" "${reseeded}")
run_step("${DIKE_RUN}" "${WORK_DIR}/seed8.json"
         --checkpoint-out "${CKPT_SEED}" --checkpoint-every 2)
execute_process(COMMAND "${DIKE_DIFF}" "${CKPT_A}" "${CKPT_SEED}"
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_QUIET)
if(NOT code EQUAL 1)
  message(FATAL_ERROR "dike_diff missed a seed divergence (exit ${code}): ${out}")
endif()

# Malformed inputs must fail with a non-zero exit and a clear message.
execute_process(
  COMMAND "${DIKE_RUN}" "${CONFIG}" --checkpoint-out "${WORK_DIR}/x.ckpt"
          --checkpoint-every nope
  RESULT_VARIABLE code ERROR_VARIABLE err OUTPUT_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "dike_run accepted --checkpoint-every nope")
endif()
if(NOT err MATCHES "checkpoint-every")
  message(FATAL_ERROR "malformed-flag error lacks the flag name: ${err}")
endif()

# Both single-run paths carry no telemetry: its flags must be rejected
# with the flag's name, never silently dropped.
foreach(flag --telemetry --trace-out --quantum-metrics --events-csv
             --registry-out --live-metrics)
  if(flag STREQUAL "--telemetry")
    set(value "")
  elseif(flag STREQUAL "--live-metrics")
    set(value 0)
  else()
    set(value "${WORK_DIR}/unwanted.out")
  endif()
  execute_process(
    COMMAND "${DIKE_RUN}" "${CONFIG}" --checkpoint-out "${WORK_DIR}/y.ckpt"
            ${flag} ${value}
    RESULT_VARIABLE code ERROR_VARIABLE err OUTPUT_QUIET)
  if(code EQUAL 0 OR NOT err MATCHES "${flag}.*--checkpoint-out")
    message(FATAL_ERROR
            "dike_run --checkpoint-out did not reject ${flag} (exit ${code}): ${err}")
  endif()
  execute_process(
    COMMAND "${DIKE_RUN}" --resume-from "${CKPT_A}" ${flag} ${value}
    RESULT_VARIABLE code ERROR_VARIABLE err OUTPUT_QUIET)
  if(code EQUAL 0 OR NOT err MATCHES "${flag}.*--resume-from")
    message(FATAL_ERROR
            "dike_run --resume-from did not reject ${flag} (exit ${code}): ${err}")
  endif()
endforeach()
if(EXISTS "${WORK_DIR}/y.ckpt" OR EXISTS "${WORK_DIR}/unwanted.out")
  message(FATAL_ERROR "a rejected single-run invocation still wrote output")
endif()

file(WRITE "${WORK_DIR}/garbage.ckpt" "DIKECKPT but not really a checkpoint")
execute_process(
  COMMAND "${DIKE_RUN}" --resume-from "${WORK_DIR}/garbage.ckpt"
  RESULT_VARIABLE code ERROR_VARIABLE err OUTPUT_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "dike_run resumed from a garbage checkpoint")
endif()
if(NOT err MATCHES "garbage.ckpt")
  message(FATAL_ERROR "corrupt-checkpoint error lacks the path: ${err}")
endif()

message(STATUS "replay smoke passed in ${WORK_DIR}")
