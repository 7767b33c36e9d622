# Campaign gate (ISSUE acceptance): the batch service must produce
# byte-identical aggregate JSON regardless of worker count and cache
# state, a warm rerun must be 100% cache hits, a WCM_CACHE_SALT bump must
# invalidate every entry, and every per-cell trace must lint clean.  The
# exit-code contract for campaign specs is probed at the end.
#
# Run as:  cmake -DWCMGEN=<bin> -DWORKDIR=<dir> -P campaign_ci.cmake

if(NOT DEFINED WCMGEN OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "pass -DWCMGEN=<bin> -DWORKDIR=<dir>")
endif()

file(MAKE_DIRECTORY ${WORKDIR})

function(expect_exit code)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rv
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rv EQUAL ${code})
    message(FATAL_ERROR
      "expected exit ${code}, got '${rv}' for: ${ARGN}\n"
      "stdout: ${out}\nstderr: ${err}")
  endif()
endfunction()

# Run one campaign and check the fixed-format stderr summary
# ("campaign <name>: cells=... computed=... cached=...") against the
# expected computed/cached split.
function(run_campaign computed cached)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rv
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "campaign run failed (${rv}): ${ARGN}\n${err}")
  endif()
  if(NOT err MATCHES "computed=${computed} cached=${cached} ")
    message(FATAL_ERROR
      "expected computed=${computed} cached=${cached} for: ${ARGN}\n"
      "summary: ${err}")
  endif()
endfunction()

set(spec ${WORKDIR}/campaign_ci.json)
file(WRITE ${spec} [[{
  "name": "ci",
  "device": "m4000",
  "seed": 17,
  "grid": [
    {"engine": "pairwise", "E": 5, "b": 64,
     "input": ["random", "worst-case"], "k": [1, 2]},
    {"engine": "multiway", "E": 3, "b": 64, "input": "worst-case",
     "k": [1], "ways": 2}
  ]
}]])
set(cache ${WORKDIR}/campaign_ci.wcmc)
file(REMOVE ${cache})

# 1. Serial reference, no cache.
run_campaign(5 0 ${WCMGEN} campaign ${spec} --threads 1 --no-cache --quiet
             --out ${WORKDIR}/ref.json)

# 2. Parallel run: byte-identical to the serial reference.
run_campaign(5 0 ${WCMGEN} campaign ${spec} --threads 4 --no-cache --quiet
             --out ${WORKDIR}/par.json)
expect_exit(0 ${CMAKE_COMMAND} -E compare_files
            ${WORKDIR}/ref.json ${WORKDIR}/par.json)

# 3. Cold cache computes everything; warm rerun is 100% hits; both are
#    byte-identical to the reference.
run_campaign(5 0 ${WCMGEN} campaign ${spec} --threads 4 --cache ${cache}
             --quiet --out ${WORKDIR}/cold.json)
run_campaign(0 5 ${WCMGEN} campaign ${spec} --threads 4 --cache ${cache}
             --quiet --out ${WORKDIR}/warm.json)
expect_exit(0 ${CMAKE_COMMAND} -E compare_files
            ${WORKDIR}/ref.json ${WORKDIR}/cold.json)
expect_exit(0 ${CMAKE_COMMAND} -E compare_files
            ${WORKDIR}/ref.json ${WORKDIR}/warm.json)

# 4. A code-version salt bump invalidates every entry (recomputes), and the
#    recomputed output is still identical.
run_campaign(5 0 ${CMAKE_COMMAND} -E env WCM_CACHE_SALT=ci-bump
             ${WCMGEN} campaign ${spec} --threads 4 --cache ${cache}
             --quiet --out ${WORKDIR}/salted.json)
expect_exit(0 ${CMAKE_COMMAND} -E compare_files
            ${WORKDIR}/ref.json ${WORKDIR}/salted.json)

# 5. Every per-cell trace from a parallel campaign lints clean, and the
#    traced aggregate (every block on the full path) is byte-identical to
#    the untraced reference (later blocks reuse their launch's first-block
#    price of each data-independent phase).
set(traces ${WORKDIR}/campaign_traces)
file(REMOVE_RECURSE ${traces})
run_campaign(5 0 ${WCMGEN} campaign ${spec} --threads 4 --no-cache --quiet
             --trace-dir ${traces} --out ${WORKDIR}/traced.json)
expect_exit(0 ${CMAKE_COMMAND} -E compare_files
            ${WORKDIR}/ref.json ${WORKDIR}/traced.json)
file(GLOB cell_traces ${traces}/*.wcmt)
list(LENGTH cell_traces n_traces)
if(NOT n_traces EQUAL 5)
  message(FATAL_ERROR "expected 5 cell traces, found ${n_traces}")
endif()
foreach(trace ${cell_traces})
  expect_exit(0 ${WCMGEN} analyze ${trace})
endforeach()

# 6. Exit-code contract: 2 usage, 3 bad spec file, 4 bad configuration.
expect_exit(2 ${WCMGEN} campaign)
expect_exit(2 ${WCMGEN} campaign ${spec} --no-such-flag)
expect_exit(3 ${WCMGEN} campaign ${WORKDIR}/definitely-missing.json)
file(WRITE ${WORKDIR}/not_json.json "{ definitely not json")
expect_exit(3 ${WCMGEN} campaign ${WORKDIR}/not_json.json)
file(WRITE ${WORKDIR}/unknown_key.json
     [[{"grid": [{"engine": "pairwise", "spline": 1}]}]])
expect_exit(3 ${WCMGEN} campaign ${WORKDIR}/unknown_key.json)
file(WRITE ${WORKDIR}/bad_config.json
     [[{"grid": [{"engine": "pairwise", "E": 5, "b": 32, "w": 32}]}]])
expect_exit(4 ${WCMGEN} campaign ${WORKDIR}/bad_config.json)

# 7. An injected worker fault on every attempt exhausts the retry budget
#    and quarantines every cell: the campaign completes *degraded* -> 6
#    (the pre-quarantine fail-fast behavior is opt-in via --fail-fast,
#    which surfaces the first failure as an internal error -> 5).
expect_exit(6 ${CMAKE_COMMAND} -E env WCM_FAILPOINTS=runtime.worker.job
            ${WCMGEN} campaign ${spec} --threads 1 --no-cache --quiet)
expect_exit(5 ${CMAKE_COMMAND} -E env WCM_FAILPOINTS=runtime.worker.job
            ${WCMGEN} campaign ${spec} --threads 1 --no-cache --quiet
            --fail-fast)

file(REMOVE_RECURSE ${traces})
file(REMOVE ${spec} ${cache} ${spec}.wcmj ${WORKDIR}/ref.json ${WORKDIR}/par.json
     ${WORKDIR}/cold.json ${WORKDIR}/warm.json ${WORKDIR}/salted.json
     ${WORKDIR}/traced.json ${WORKDIR}/not_json.json
     ${WORKDIR}/unknown_key.json ${WORKDIR}/bad_config.json)
