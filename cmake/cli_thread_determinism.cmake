# End-to-end thread-count determinism: CLI `train` -> `predict` of
# D-DA-GRNN, dense (ENHANCENET_TOPK=0) and top-k (ENHANCENET_TOPK=4), must
# write byte-identical checkpoints and forecast CSVs under
# ENHANCENET_NUM_THREADS=1 and =4. The per-op thread tests cannot see an
# order dependence that only shows once training, checkpointing and serving
# run together; this one can.
#
# Run as a CTest test:
#   cmake -DCLI=<enhancenet_cli> -DWORK_DIR=<scratch dir>
#         -P cmake/cli_thread_determinism.cmake

foreach(var CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_thread_determinism: pass -D${var}=...")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs one CLI subcommand under the given thread count and top-k.
function(run_cli threads topk log)
  execute_process(
      COMMAND ${CMAKE_COMMAND} -E env
              ENHANCENET_NUM_THREADS=${threads} ENHANCENET_TOPK=${topk}
              "${CLI}" ${ARGN} --synthetic eb --model D-DA-GRNN
      WORKING_DIRECTORY "${WORK_DIR}"
      RESULT_VARIABLE result
      OUTPUT_FILE "${WORK_DIR}/${log}"
      ERROR_FILE "${WORK_DIR}/${log}")
  if(NOT result EQUAL 0)
    file(READ "${WORK_DIR}/${log}" output)
    message(FATAL_ERROR "enhancenet_cli ${ARGN} failed (${result}):\n${output}")
  endif()
endfunction()

function(expect_same a b)
  execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files "${WORK_DIR}/${a}"
              "${WORK_DIR}/${b}"
      RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${a} and ${b} differ: the result depends on the "
                        "thread count")
  endif()
endfunction()

foreach(topk 0 4)
  foreach(threads 1 4)
    set(run "topk${topk}-threads${threads}")
    run_cli(${threads} ${topk} ${run}.train.log
            train --epochs 1 --checkpoint ${run}.encp)
    run_cli(${threads} ${topk} ${run}.predict.log
            predict --checkpoint ${run}.encp --out ${run}.csv)
  endforeach()
  expect_same(topk${topk}-threads1.encp topk${topk}-threads4.encp)
  expect_same(topk${topk}-threads1.csv topk${topk}-threads4.csv)
endforeach()

# Guard against a vacuous pass: the top-k run must take the sparse path.
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORK_DIR}/topk0-threads1.csv" "${WORK_DIR}/topk4-threads1.csv"
    RESULT_VARIABLE differs)
if(NOT differs)
  message(FATAL_ERROR "ENHANCENET_TOPK=4 left the forecast unchanged; the "
                      "top-k path was not exercised")
endif()

message(STATUS "cli_thread_determinism: byte-identical at 1 and 4 threads")
