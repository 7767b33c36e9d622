# Lint gate for every sort engine: record shared-memory traces from
# blocksort, pairwise, multiway, bitonic, radix, and shearsort on random
# and adversarial inputs — small-E (5) and large-E (17) — and require
# `wcmgen analyze` to report zero diagnostics (races, bounds, uninitialized
# reads, and stride-prediction divergence are all errors).  A seeded-race
# fixture must exit 1, a corrupt stream must exit 3 and an xor layout over
# a non-power-of-two warp must exit 4, proving the gate can actually fail.
#
# Run as:  cmake -DWCMGEN=<bin> -DWORKDIR=<dir> -P wcmlint_ci.cmake

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

# Record one engine's trace and lint it clean (exit 0), unpadded and with
# one word of padding (the cross-check must hold under both layouts).
function(lint_clean name)
  set(trace ${WORKDIR}/${name}.wcmt)
  expect_exit(0 ${WCMGEN} sort ${ARGN} --trace-out ${trace})
  expect_exit(0 ${WCMGEN} analyze ${trace})
  expect_exit(0 ${WCMGEN} analyze --pad 1 ${trace})
  file(REMOVE ${trace})
endfunction()

# Pairwise engine (includes the blocksort base case): adversarial and
# random, small-E and large-E.
lint_clean(pw_small_adv  --E 5 --b 64 --k 2 --input worst-case)
lint_clean(pw_small_rand --E 5 --b 64 --k 2 --input random --seed 7)
lint_clean(pw_large_adv  --E 17 --b 256 --k 1 --input worst-case)
lint_clean(pw_large_rand --E 17 --b 256 --k 1 --input random --seed 7)

# Multiway engine.
lint_clean(mw_small_adv  --E 5 --b 128 --k 2 --algorithm multiway
           --input worst-case)
lint_clean(mw_small_rand --E 5 --b 128 --k 2 --algorithm multiway
           --input random --seed 11)
lint_clean(mw_large_adv  --E 17 --b 256 --k 1 --algorithm multiway
           --input worst-case)

# Bitonic engine.
lint_clean(bt_small_rand --E 5 --b 64 --k 2 --algorithm bitonic
           --input random --seed 3)
lint_clean(bt_small_adv  --E 5 --b 64 --k 2 --algorithm bitonic
           --input worst-case)

# Radix engine (modeled shared-memory atomics must not be flagged; the
# all-equal adversarial input maximizes atomic collisions).
lint_clean(rx_small_rand --E 5 --b 64 --k 1 --algorithm radix
           --input random --seed 5)
lint_clean(rx_small_adv  --E 5 --b 64 --k 1 --algorithm radix
           --input sorted)

# Shearsort engine: random and adversarial (the latter recorded under
# xor), small-E and large-E.
lint_clean(ss_small_rand --E 5 --b 64 --k 2 --algorithm shearsort
           --input random --seed 3)
lint_clean(ss_small_adv  --E 5 --b 64 --k 2 --algorithm shearsort
           --input worst-case --layout xor)
lint_clean(ss_large_adv  --E 17 --b 256 --k 1 --algorithm shearsort
           --input worst-case)

# Standalone blocksort capture: one tile (k = 0) is one block sort.
lint_clean(blocksort --E 5 --b 64 --k 0 --input random --seed 9)

# A w = 3 trace in which logical words 5 and 8 share a physical word under
# xor: the layout is refused (exit 4), not priced as a broadcast, while
# rotation is valid at any width.
file(WRITE ${WORKDIR}/w3.wcmt "WCMT2 3 9 2\nF 0 9\nR 0:5 1:8\n")
expect_exit(4 ${WCMGEN} analyze --layout xor ${WORKDIR}/w3.wcmt)
expect_exit(0 ${WCMGEN} analyze --layout rotation ${WORKDIR}/w3.wcmt)
file(REMOVE ${WORKDIR}/w3.wcmt)

# Seeded race: a store and a load of the same address by different lanes
# with no intervening barrier must be flagged (exit 1).
file(WRITE ${WORKDIR}/seeded_race.wcmt
     "WCMT2 32 64 3\nF 0 64\nW 0:5\nR 1:5\n")
expect_exit(1 ${WCMGEN} analyze ${WORKDIR}/seeded_race.wcmt)
expect_exit(1 ${WCMGEN} analyze --json ${WORKDIR}/seeded_race.wcmt)

# The same pair separated by a barrier is clean.
file(WRITE ${WORKDIR}/barriered.wcmt
     "WCMT2 32 64 4\nF 0 64\nW 0:5\nB\nR 1:5\n")
expect_exit(0 ${WCMGEN} analyze ${WORKDIR}/barriered.wcmt)

# Corrupt / missing streams -> 3 (dominating the racy file's 1).
file(WRITE ${WORKDIR}/corrupt.wcmt "WCMT2 32 64 2\nR 0:1\n")
expect_exit(3 ${WCMGEN} analyze ${WORKDIR}/corrupt.wcmt)
expect_exit(3 ${WCMGEN} analyze ${WORKDIR}/corrupt.wcmt ${WORKDIR}/seeded_race.wcmt)
expect_exit(3 ${WCMGEN} analyze ${WORKDIR}/definitely-missing.wcmt)

# Usage errors -> 2.
expect_exit(2 ${WCMGEN} analyze)
expect_exit(2 ${WCMGEN} analyze --frobnicate ${WORKDIR}/seeded_race.wcmt)
expect_exit(2 ${WCMGEN} analyze --pad nope ${WORKDIR}/seeded_race.wcmt)

file(REMOVE ${WORKDIR}/seeded_race.wcmt ${WORKDIR}/barriered.wcmt
     ${WORKDIR}/corrupt.wcmt)
