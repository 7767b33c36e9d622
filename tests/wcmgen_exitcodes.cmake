# Exit-code contract for wcmgen (see docs/API.md "Error handling & exit
# codes"): 0 ok, 2 usage, 3 bad input file, 4 bad configuration, 5 internal,
# 6 degraded campaign (quarantined cells), 7 interrupted campaign.
#
# Run as:  cmake -DWCMGEN=<binary> -DWORKDIR=<dir> -P wcmgen_exitcodes.cmake

if(NOT DEFINED WCMGEN OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "pass -DWCMGEN=<binary> -DWORKDIR=<dir>")
endif()

# Exit `code` and print `needle` somewhere on stdout (ctest's
# PASS_REGULAR_EXPRESSION alone would ignore the exit code).
function(expect_prints code needle)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rv
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rv EQUAL ${code})
    message(FATAL_ERROR
      "expected exit ${code}, got '${rv}' for: ${ARGN}\n"
      "stdout: ${out}\nstderr: ${err}")
  endif()
  string(FIND "${out}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "'${needle}' missing from stdout of: ${ARGN}\n"
                        "stdout: ${out}")
  endif()
endfunction()

function(expect_exit code)
  expect_prints(${code} "" ${ARGN})
endfunction()

# usage errors -> 2
expect_exit(2 ${WCMGEN})
expect_exit(2 ${WCMGEN} frobnicate)
expect_exit(2 ${WCMGEN} generate --E 15x --b 64)
expect_exit(2 ${WCMGEN} generate --E 5 --b 64 --no-such-flag)
expect_exit(2 ${WCMGEN} generate --E 5 --b 64 --strategy nope)
expect_exit(2 ${WCMGEN} sort --E 5 --b 64 --library nope)
expect_exit(2 ${WCMGEN} sort --E 5 --b 64 --algorithm nope)
expect_exit(2 ${WCMGEN} sort --E 5 --b 64 --input nope)
expect_exit(2 ${WCMGEN} evaluate --E 5 --side Q)
expect_exit(2 ${WCMGEN} inspect)
expect_exit(2 ${WCMGEN} sort --E 5 --b 64 --layout nope)
expect_exit(2 ${WCMGEN} prove --layout nope)
expect_exit(2 ${WCMGEN} prove --certify --bs 64x)
expect_exit(2 ${WCMGEN} prove --bs 64,128)  # grid axes need --certify
# a switch never takes the next token: the stray 7 is refused
expect_exit(2 ${WCMGEN} prove --any-E 7)

# The unknown-engine diagnostic must enumerate the engine table (one row
# per engine in src/sort/engines.cpp feeds the error, all_engines(), the
# describers and every run), so a new engine can never be added half-way.
execute_process(COMMAND ${WCMGEN} prove --engine quicksort
                RESULT_VARIABLE rv OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rv EQUAL 2)
  message(FATAL_ERROR "prove --engine quicksort: expected exit 2, got ${rv}")
endif()
foreach(engine blocksort block-merge pairwise multiway bitonic radix scan
        shearsort)
  if(NOT err MATCHES "${engine}")
    message(FATAL_ERROR
      "unknown-engine diagnostic does not list '${engine}': ${err}")
  endif()
endforeach()

# help -> 0
expect_exit(0 ${WCMGEN} --help)
expect_exit(0 ${WCMGEN} generate --help)

# version -> 0, printing the git-describe build info and the cache salt
# (so an operator can tell at a glance whether two daemons share caches)
foreach(spelling version --version -V)
  execute_process(COMMAND ${WCMGEN} ${spelling}
                  RESULT_VARIABLE rv OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "wcmgen ${spelling}: expected exit 0, got ${rv}")
  endif()
  if(NOT out MATCHES "^wcmgen [0-9]+\\.[0-9]+\\.[0-9]+ \\(.+\\)\n")
    message(FATAL_ERROR "wcmgen ${spelling}: malformed version line: ${out}")
  endif()
  if(NOT out MATCHES "cache salt: 0x[0-9a-f]+")
    message(FATAL_ERROR "wcmgen ${spelling}: missing cache salt: ${out}")
  endif()
endforeach()

# serve with malformed bounds is a usage error -> 2
expect_exit(2 ${WCMGEN} serve --queue-max 0)
expect_exit(2 ${WCMGEN} serve --no-such-flag x)

# bad configuration -> 4
expect_exit(4 ${WCMGEN} generate --E 0 --b 64)
expect_exit(4 ${WCMGEN} prove --w 15)              # w not a power of two
expect_exit(4 ${WCMGEN} prove --b 7)               # b not a power of two
expect_exit(4 ${WCMGEN} sort --E 5 --b 32 --w 32)   # b < 2w
expect_exit(4 ${WCMGEN} sort --E 5 --b 63)          # b not a power of two
expect_exit(4 ${WCMGEN} sort --E 5 --b 64 --k 1 --algorithm multiway
            --ways 1)                                # the engine's shape rule

# visualize: a co-prime E renders the worst-case construction, any other
# E <= w the sorted-order warp of Fig. 1; E > w has neither -> 4
expect_prints(0 "aligned 80 of 144 elements; per-step serialization: 8 9 9 9 9 9 9 9 9\n\nconflict heatmap"
              ${WCMGEN} visualize --E 9 --w 16)
expect_prints(0 "Sorted order, w=16, E=12 (gcd = 4):\n"
              ${WCMGEN} visualize --E 12 --w 16)
expect_prints(0 "aligned 48 of 192 elements\n"
              ${WCMGEN} visualize --E 12 --w 16)
expect_exit(4 ${WCMGEN} visualize --E 17 --w 16)

# bad input file -> 3
expect_exit(3 ${WCMGEN} inspect --in ${WORKDIR}/definitely-missing.wcmi)
file(WRITE ${WORKDIR}/exitcode_corrupt.wcmi "XXXX this is not a wcmi file")
expect_exit(3 ${WCMGEN} inspect --in ${WORKDIR}/exitcode_corrupt.wcmi)

# analyze: usage -> 2, clean trace -> 0, diagnostics -> 1, corrupt -> 3
expect_exit(2 ${WCMGEN} analyze)
expect_exit(2 ${WCMGEN} analyze --in x.wcmt --no-such-flag)
file(WRITE ${WORKDIR}/exitcode_clean.wcmt "WCMT2 32 64 3\nF 0 64\nR 0:0 1:1\nB\n")
expect_exit(0 ${WCMGEN} analyze --in ${WORKDIR}/exitcode_clean.wcmt)
expect_exit(0 ${WCMGEN} analyze --in ${WORKDIR}/exitcode_clean.wcmt --json)
file(WRITE ${WORKDIR}/exitcode_racy.wcmt "WCMT2 32 64 3\nF 0 64\nW 0:5\nR 1:5\n")
expect_exit(1 ${WCMGEN} analyze --in ${WORKDIR}/exitcode_racy.wcmt)
file(WRITE ${WORKDIR}/exitcode_corrupt.wcmt "WCMT2 32 64 1\nR 99:0\n")
expect_exit(3 ${WCMGEN} analyze --in ${WORKDIR}/exitcode_corrupt.wcmt)
expect_exit(3 ${WCMGEN} analyze --in ${WORKDIR}/definitely-missing.wcmt)
file(REMOVE ${WORKDIR}/exitcode_clean.wcmt ${WORKDIR}/exitcode_racy.wcmt
     ${WORKDIR}/exitcode_corrupt.wcmt)

# sort --trace-out produces a trace that analyze accepts cleanly
expect_exit(0 ${WCMGEN} sort --E 5 --b 64 --k 1
            --trace-out ${WORKDIR}/exitcode_sort.wcmt)
expect_exit(0 ${WCMGEN} analyze --in ${WORKDIR}/exitcode_sort.wcmt)
file(REMOVE ${WORKDIR}/exitcode_sort.wcmt)

# internal error (injected simulator invariant break) -> 5
expect_exit(5 ${CMAKE_COMMAND} -E env WCM_FAILPOINTS=sort.pairwise.round
            ${WCMGEN} sort --E 5 --b 64 --k 1)
expect_exit(5 ${CMAKE_COMMAND} -E env WCM_FAILPOINTS=sim.smem.alloc
            ${WCMGEN} sort --E 5 --b 64 --k 1)

# happy path: generate, inspect round-trip -> 0
expect_exit(0 ${WCMGEN} generate --E 5 --b 64 --k 1 --layout xor)
expect_exit(0 ${WCMGEN} sort --E 5 --b 64 --k 1 --device gtx770)
expect_exit(0 ${WCMGEN} generate --E 5 --b 64 --k 1
            --out ${WORKDIR}/exitcode_ok.wcmi)
expect_exit(0 ${WCMGEN} inspect --in ${WORKDIR}/exitcode_ok.wcmi)

# an injected I/O fault on a valid file still classifies as bad input -> 3
expect_exit(3 ${CMAKE_COMMAND} -E env WCM_FAILPOINTS=io.read.checksum
            ${WCMGEN} inspect --in ${WORKDIR}/exitcode_ok.wcmi)

# a malformed fault schedule is a usage error -> 2 (a typo'd chaos run
# must abort loudly, never silently arm nothing)
expect_exit(2 ${CMAKE_COMMAND} -E env WCM_FAILPOINTS=io.read.open=abc
            ${WCMGEN} sort --E 5 --b 64 --k 1)
expect_exit(2 ${CMAKE_COMMAND} -E env "WCM_FAILPOINTS==1"
            ${WCMGEN} sort --E 5 --b 64 --k 1)
expect_exit(2 ${CMAKE_COMMAND} -E env WCM_FAILPOINTS=io.read.open=1:2y
            ${WCMGEN} sort --E 5 --b 64 --k 1)

# degraded campaign (every cell's retries exhausted) -> 6
file(WRITE ${WORKDIR}/exitcode_campaign.json
     [[{"grid": [{"engine": "pairwise", "E": 5, "b": 64, "k": [1]}]}]])
expect_exit(6 ${CMAKE_COMMAND} -E env WCM_FAILPOINTS=runtime.worker.job
            ${WCMGEN} campaign ${WORKDIR}/exitcode_campaign.json
            --threads 1 --no-cache --quiet)
# the spec operand may follow a switch (--quiet takes no value)
expect_exit(0 ${WCMGEN} campaign --quiet ${WORKDIR}/exitcode_campaign.json
            --no-cache)
# a failed cache store costs only the speedup -> 0, with --out written
file(REMOVE ${WORKDIR}/exitcode_store.out.json)
expect_exit(0 ${CMAKE_COMMAND} -E env WCM_FAILPOINTS=runtime.cache.store
            ${WCMGEN} campaign ${WORKDIR}/exitcode_campaign.json --quiet
            --cache ${WORKDIR}/exitcode_store.wcmc
            --out ${WORKDIR}/exitcode_store.out.json)
if(NOT EXISTS ${WORKDIR}/exitcode_store.out.json)
  message(FATAL_ERROR "a failed cache store left no --out aggregate")
endif()
# a cell its engine's shape rule refuses is a bad configuration -> 4,
# before any cell runs (not a quarantined cell and exit 6)
file(WRITE ${WORKDIR}/exitcode_refused.json
     [[{"grid": [{"engine": "multiway", "E": 5, "b": 64, "ways": 1}]}]])
expect_exit(4 ${WCMGEN} campaign ${WORKDIR}/exitcode_refused.json
            --no-cache --quiet)

file(REMOVE ${WORKDIR}/exitcode_corrupt.wcmi ${WORKDIR}/exitcode_ok.wcmi
     ${WORKDIR}/exitcode_campaign.json
     ${WORKDIR}/exitcode_campaign.json.wcmj
     ${WORKDIR}/exitcode_store.wcmc ${WORKDIR}/exitcode_store.out.json
     ${WORKDIR}/exitcode_refused.json
     ${WORKDIR}/exitcode_refused.json.wcmj)
