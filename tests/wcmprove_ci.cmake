# Prover gate (ISSUE acceptance): every engine must prove clean — exit 0,
# all step groups bounded, theorems reproduced — under the plain layout and
# one word of padding, and the machine-readable reports must be
# byte-identical to the committed goldens (tests/golden/prove_*.json), so
# any change to a derived bound is a reviewed diff, not a silent drift.
# A recorded pairwise trace must certify against its bounds; a fabricated
# stride-w store must be flagged (exit 1); corrupt and missing traces must
# exit 3, usage errors 2 and shape violations 4, proving the gate can
# actually fail.
#
# Run as:  cmake -DWCMGEN=<bin> -DWORKDIR=<dir> -DGOLDEN_DIR=<dir>
#                -P wcmprove_ci.cmake

if(NOT DEFINED WCMGEN OR NOT DEFINED WORKDIR OR NOT DEFINED GOLDEN_DIR)
  message(FATAL_ERROR "pass -DWCMGEN=<bin> -DWORKDIR=<dir> -DGOLDEN_DIR=<dir>")
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

# Prove one engine clean under one pad and diff its JSON report against
# the committed golden.
function(prove_golden engine pad)
  expect_exit(0 ${WCMGEN} prove --engine ${engine} --pad ${pad})
  execute_process(COMMAND ${WCMGEN} prove --engine ${engine} --pad ${pad} --json
                  RESULT_VARIABLE rv
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "--json run failed (${rv}) for ${engine} pad ${pad}: ${err}")
  endif()
  set(golden ${GOLDEN_DIR}/prove_${engine}_pad${pad}.json)
  if(NOT EXISTS ${golden})
    message(FATAL_ERROR "missing golden report ${golden}")
  endif()
  file(READ ${golden} want)
  if(NOT out STREQUAL want)
    file(WRITE ${WORKDIR}/prove_${engine}_pad${pad}.json "${out}")
    message(FATAL_ERROR
      "JSON report for ${engine} pad ${pad} diverges from ${golden}; "
      "actual output saved to ${WORKDIR}/prove_${engine}_pad${pad}.json")
  endif()
endfunction()

foreach(engine blocksort block-merge pairwise multiway bitonic radix scan
        shearsort)
  foreach(pad 0 1)
    prove_golden(${engine} ${pad})
  endforeach()
endforeach()

expect_exit(0 ${WCMGEN} prove)

# Dynamic certification: a recorded pairwise trace must stay within the
# bounds proved for its exact configuration, plain and padded.
set(trace ${WORKDIR}/pairwise.wcmt)
expect_exit(0 ${WCMGEN} sort --E 5 --b 64 --k 2 --input worst-case
            --trace-out ${trace})
expect_exit(0 ${WCMGEN} prove --engine pairwise --E-min 5 --E-max 5
            --trace ${trace})
expect_exit(0 ${WCMGEN} prove --engine pairwise --E-min 5 --E-max 5 --pad 1
            --trace ${trace})

# A fabricated stride-w store (all 32 lanes in bank 0) exceeds every
# proved write bound -> exit 1 with a symbolic-divergence finding.
set(line "W")
foreach(lane RANGE 31)
  math(EXPR addr "${lane} * 32")
  string(APPEND line " ${lane}:${addr}")
endforeach()
file(WRITE ${WORKDIR}/overbound.wcmt "WCMT2 32 1024 2\nF 0 1024\n${line}\n")
expect_exit(1 ${WCMGEN} prove --engine pairwise --trace ${WORKDIR}/overbound.wcmt)
execute_process(COMMAND ${WCMGEN} prove --engine pairwise --json
                        --trace ${WORKDIR}/overbound.wcmt
                RESULT_VARIABLE rv OUTPUT_VARIABLE out ERROR_QUIET)
if(NOT rv EQUAL 1 OR NOT out MATCHES "symbolic-divergence")
  message(FATAL_ERROR
    "over-bound trace not flagged as symbolic-divergence (exit ${rv})")
endif()

# Corrupt / missing trace files -> 3.
file(WRITE ${WORKDIR}/corrupt.wcmt "WCMT2 32 64 2\nR 0:1\n")
expect_exit(3 ${WCMGEN} prove --engine pairwise --trace ${WORKDIR}/corrupt.wcmt)
expect_exit(3 ${WCMGEN} prove --engine pairwise
            --trace ${WORKDIR}/definitely-missing.wcmt)

# Usage errors -> 2.
expect_exit(2 ${WCMGEN} prove --engine quicksort)
expect_exit(2 ${WCMGEN} prove --frobnicate)
expect_exit(2 ${WCMGEN} prove --w nope)
expect_exit(2 ${WCMGEN} prove --trace ${trace})
expect_exit(2 ${WCMGEN} prove --frobnicate 1)

# A shape the engines reject (w not a power of two) is bad configuration.
expect_exit(4 ${WCMGEN} prove --w 15)

file(REMOVE ${trace} ${WORKDIR}/overbound.wcmt ${WORKDIR}/corrupt.wcmt)
