# Serve gate (ISSUE acceptance): the wcmd daemon end to end, driven by
# wcm-loadgen over real Unix-domain sockets —
#
#   1. determinism: identical requests answer byte-identically across a
#      cold cache, a WCMS-warmed restart (which must compute *nothing*),
#      an in-memory daemon, and different WCM_THREADS settings;
#   2. the malformed-request corpus gets typed error responses and the
#      daemon keeps serving, then drains cleanly (exit 0);
#   3. a seeded closed-loop mix under WCM_THREADS=2 meets the counter
#      invariants (every request counted, cache hits, bounded jobs) and
#      emits the SLO report;
#   4. SIGTERM under load drains with the zero-drop invariant (exit 0)
#      while the still-queued client requests are dropped, not hung;
#   5. kill/resume: WCM_CHAOS_KILL_AFTER murders the daemon mid-campaign;
#      restarting and resubmitting the identical request replays the
#      journaled prefix (serve.campaign.replayed) and converges to the
#      clean reference bytes;
#   6. an injected dispatch fault answers `internal` exactly once and is
#      never cached — the identical resend computes fresh and succeeds;
#
# and, first, that an unknown flag is a usage error naming the flag and
# that `wcmd --help` and `wcmgen serve --help` print the same text.
#
# Run as:  cmake -DWCMD=<bin> -DWCMGEN=<bin> -DLOADGEN=<bin> -DWORKDIR=<dir>
#                -P serve_ci.cmake

if(NOT DEFINED WCMD OR NOT DEFINED WCMGEN OR NOT DEFINED LOADGEN
   OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR
    "pass -DWCMD=<bin> -DWCMGEN=<bin> -DLOADGEN=<bin> -DWORKDIR=<dir>")
endif()

file(MAKE_DIRECTORY ${WORKDIR})
# Abstract-namespace sockets are machine-global; a random run id keeps
# concurrent build trees from colliding.
string(RANDOM LENGTH 8 ALPHABET 0123456789abcdef run_id)

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

function(require_match file pattern why)
  file(READ ${file} contents)
  if(NOT contents MATCHES "${pattern}")
    message(FATAL_ERROR "${why}\npattern: ${pattern}\nin ${file}:\n${contents}")
  endif()
endfunction()

# ---- 0. usage: an unknown flag exits 2 with a message naming it ----------

execute_process(COMMAND ${WCMD} --frob
                RESULT_VARIABLE rv OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rv EQUAL 2 OR NOT err MATCHES "unknown flag '--frob'")
  message(FATAL_ERROR
    "wcmd --frob: expected exit 2 naming the flag, got ${rv}: ${err}")
endif()

# One daemon, one help text: both entries print the daemon's flag table.
execute_process(COMMAND ${WCMD} --help
                RESULT_VARIABLE rv OUTPUT_VARIABLE wcmd_help)
execute_process(COMMAND ${WCMGEN} serve --help
                RESULT_VARIABLE rv2 OUTPUT_VARIABLE serve_help)
if(NOT rv EQUAL 0 OR NOT rv2 EQUAL 0 OR NOT wcmd_help STREQUAL serve_help)
  message(FATAL_ERROR "wcmd --help (exit ${rv}) and wcmgen serve --help "
          "(exit ${rv2}) differ:\n${wcmd_help}\n---\n${serve_help}")
endif()
if(NOT wcmd_help MATCHES "--max-connections")
  message(FATAL_ERROR "daemon help lacks its flag table:\n${wcmd_help}")
endif()

# ---- 1. determinism across cache states, restarts, and thread counts ------

set(script ${WORKDIR}/serve_requests.txt)
file(WRITE ${script} [[{"op":"generate","id":"a","params":{"E":5,"b":64,"k":2}}
{"op":"generate","id":"b","params":{"E":7,"b":64,"k":1,"strategy":"outside-in"}}
{"op":"generate","id":"c","params":{"E":9,"b":128,"k":2,"layout":"xor"}}
{"op":"prove","id":"d","params":{"engine":"pairwise","w":32,"b":64}}
{"op":"prove","id":"e","params":{"engine":"shearsort","w":32,"b":64}}
{"op":"certify","id":"f","params":{"engine":"shearsort","w":32,"bs":[64],"pads":[0,1]}}
]])
set(data1 ${WORKDIR}/serve_data1)
file(REMOVE_RECURSE ${data1})

expect_exit(0 ${CMAKE_COMMAND} -E env WCM_THREADS=1
            ${LOADGEN} --socket @wcm-ci-${run_id}-cold --spawn ${WCMD}
            --data-dir ${data1} --script ${script}
            --out ${WORKDIR}/serve_cold.txt --drain)

# Restarted daemon, WCMS-warmed, different worker count: same bytes.
expect_exit(0 ${CMAKE_COMMAND} -E env WCM_THREADS=4
            ${LOADGEN} --socket @wcm-ci-${run_id}-warm --spawn ${WCMD}
            --data-dir ${data1} --script ${script}
            --out ${WORKDIR}/serve_warm.txt --drain)
expect_exit(0 ${CMAKE_COMMAND} -E compare_files
            ${WORKDIR}/serve_cold.txt ${WORKDIR}/serve_warm.txt)

# A second warmed restart with telemetry on proves the answers came from
# the WCMS cache: zero scheduler jobs ran, and the response prefix is
# byte-identical to the cold run.
set(script_metrics ${WORKDIR}/serve_requests_metrics.txt)
file(READ ${script} script_body)
file(WRITE ${script_metrics} "${script_body}{\"op\":\"metrics\",\"id\":\"m\"}\n")
expect_exit(0 ${CMAKE_COMMAND} -E env WCM_TELEMETRY=1
            ${LOADGEN} --socket @wcm-ci-${run_id}-warm2 --spawn ${WCMD}
            --data-dir ${data1} --script ${script_metrics}
            --out ${WORKDIR}/serve_warm2.txt --drain)
file(READ ${WORKDIR}/serve_cold.txt cold)
file(READ ${WORKDIR}/serve_warm2.txt warm2)
string(FIND "${warm2}" "${cold}" prefix_at)
if(NOT prefix_at EQUAL 0)
  message(FATAL_ERROR "warmed restart answers differ from the cold run:\n"
          "cold:\n${cold}\nwarm:\n${warm2}")
endif()
if(warm2 MATCHES "\"name\":\"serve.jobs\"")
  message(FATAL_ERROR
    "warmed restart ran scheduler jobs instead of serving from WCMS:\n"
    "${warm2}")
endif()
require_match(${WORKDIR}/serve_warm2.txt "\"name\":\"serve.cache.hit\""
              "warmed restart reported no cache hits")

# A fully in-memory daemon recomputes everything — and still matches.
expect_exit(0 ${CMAKE_COMMAND} -E env WCM_THREADS=4
            ${LOADGEN} --socket @wcm-ci-${run_id}-mem --spawn ${WCMD}
            --script ${script} --out ${WORKDIR}/serve_mem.txt --drain)
expect_exit(0 ${CMAKE_COMMAND} -E compare_files
            ${WORKDIR}/serve_cold.txt ${WORKDIR}/serve_mem.txt)

# ---- 2. malformed corpus: typed errors, service continues, clean drain ----

set(corpus ${WORKDIR}/serve_corpus.txt)
string(REPEAT "x" 70000 oversized)
file(WRITE ${corpus} "this is not json
{\"id\":\"x\"}
{\"op\":\"health\",\"op\":\"metrics\"}
{\"op\":\"frobnicate\",\"id\":\"u\"}
{\"op\":\"generate\",\"params\":{\"bogus\":1}}
${oversized}
{\"op\":\"health\",\"id\":\"fin\"}
")
# Six insults answer errors, so the script run reports exit 1 — but every
# error must be *typed*, the final health must succeed, and the daemon
# must still drain with exit 0 (checked through loadgen's daemon reaping).
execute_process(
  COMMAND ${LOADGEN} --socket @wcm-ci-${run_id}-corpus --spawn ${WCMD}
          --script ${corpus} --out ${WORKDIR}/serve_corpus_out.txt --drain
  RESULT_VARIABLE rv OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
if(NOT rv EQUAL 1)
  message(FATAL_ERROR "corpus run: expected exit 1 (typed errors), got ${rv}\n"
          "stderr: ${stderr}")
endif()
if(NOT stderr MATCHES "daemon exited 0")
  message(FATAL_ERROR "daemon did not drain cleanly after the corpus:\n"
          "${stderr}")
endif()
file(STRINGS ${WORKDIR}/serve_corpus_out.txt corpus_lines)
list(LENGTH corpus_lines n)
if(NOT n EQUAL 7)
  message(FATAL_ERROR "corpus: expected 7 responses, got ${n}")
endif()
foreach(pair "0;parse" "1;parse" "2;parse" "3;unknown_op" "4;parse"
        "5;too_large")
  list(GET pair 0 idx)
  list(GET pair 1 type)
  list(GET corpus_lines ${idx} line)
  if(NOT line MATCHES "\"type\":\"${type}\"")
    message(FATAL_ERROR
      "corpus line ${idx}: expected error type '${type}', got: ${line}")
  endif()
endforeach()
list(GET corpus_lines 6 last)
if(NOT last MATCHES "\"id\":\"fin\",\"ok\":true")
  message(FATAL_ERROR "daemon stopped serving after the corpus: ${last}")
endif()

# ---- 3. seeded mix: counter invariants + the SLO report -------------------

file(REMOVE_RECURSE ${WORKDIR}/serve_data_mix)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env WCM_TELEMETRY=1 WCM_THREADS=2
          ${LOADGEN} --socket @wcm-ci-${run_id}-mix --spawn ${WCMD}
          --data-dir ${WORKDIR}/serve_data_mix
          --requests 240 --conns 4 --seed 7 --drain
          --out ${WORKDIR}/serve_mix.json
          --metrics-out ${WORKDIR}/serve_mix_metrics.json
          --require-counter serve.requests:240,serve.responses:240,serve.cache.hit:100,serve.jobs:1,serve.accepted:4
  RESULT_VARIABLE rv OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "seeded mix failed (exit ${rv})\nstderr: ${stderr}")
endif()
foreach(key "\"p50\"" "\"p99\"" "\"qps\"" "\"hit_rate\"" "\"dropped\":0"
        "\"errors\":0" "\"requests\":240" "\"seed\":7")
  require_match(${WORKDIR}/serve_mix.json "${key}"
                "SLO report is missing ${key}")
endforeach()

# ---- 4. graceful SIGTERM under load: zero-drop drain, clients released ----

execute_process(
  COMMAND ${LOADGEN} --socket @wcm-ci-${run_id}-term --spawn ${WCMD}
          --requests 4000 --conns 4 --seed 11 --term-after 60
          --expect-daemon-exit 0 --out ${WORKDIR}/serve_term.json
  RESULT_VARIABLE rv OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR
    "SIGTERM drain violated the zero-drop invariant (exit ${rv})\n"
    "stderr: ${stderr}")
endif()
# The drain must have cut the run short (clients see EOF, not a hang).
require_match(${WORKDIR}/serve_term.json "\"dropped\":[1-9]"
              "SIGTERM at 60 responses should drop the queued remainder")

# ---- 5. kill/resume: a murdered campaign resumes through its journal -----

set(camp ${WORKDIR}/serve_campaign.txt)
file(WRITE ${camp} [[{"op":"campaign","id":"camp","params":{"spec":{"name":"serve-ci","device":"m4000","seed":29,"grid":[{"engine":"pairwise","E":5,"b":64,"input":["random","worst-case"],"k":[1,2]}]}}}
]])
set(camp_metrics ${WORKDIR}/serve_campaign_metrics.txt)
file(READ ${camp} camp_body)
file(WRITE ${camp_metrics} "${camp_body}{\"op\":\"metrics\",\"id\":\"m\"}\n")

# Clean reference bytes from an undisturbed daemon.
file(REMOVE_RECURSE ${WORKDIR}/serve_data_cref)
expect_exit(0 ${LOADGEN} --socket @wcm-ci-${run_id}-cref --spawn ${WCMD}
            --data-dir ${WORKDIR}/serve_data_cref --script ${camp}
            --out ${WORKDIR}/serve_camp_ref.txt --drain)

# The chaos hook kills the daemon after the second durable journal append,
# mid-campaign: the client sees EOF (loadgen exit 3, an io error).
set(data5 ${WORKDIR}/serve_data_kill)
file(REMOVE_RECURSE ${data5})
expect_exit(3 ${CMAKE_COMMAND} -E env WCM_CHAOS_KILL_AFTER=2
            ${LOADGEN} --socket @wcm-ci-${run_id}-kill --spawn ${WCMD}
            --data-dir ${data5} --script ${camp})

# Restart on the same data dir and resubmit the identical request: the two
# journaled cells replay, the rest compute, and the response is
# byte-identical to the clean reference.
expect_exit(0 ${CMAKE_COMMAND} -E env WCM_TELEMETRY=1
            ${LOADGEN} --socket @wcm-ci-${run_id}-resume --spawn ${WCMD}
            --data-dir ${data5} --script ${camp_metrics}
            --out ${WORKDIR}/serve_camp_resumed.txt --drain)
file(READ ${WORKDIR}/serve_camp_ref.txt camp_ref)
file(READ ${WORKDIR}/serve_camp_resumed.txt camp_resumed)
string(FIND "${camp_resumed}" "${camp_ref}" camp_prefix_at)
if(NOT camp_prefix_at EQUAL 0)
  message(FATAL_ERROR
    "resumed campaign bytes differ from the clean reference:\n"
    "ref:\n${camp_ref}\nresumed:\n${camp_resumed}")
endif()
require_match(${WORKDIR}/serve_camp_resumed.txt
              "\"name\":\"serve.campaign.replayed\",\"value\":2"
              "resume did not replay the 2 journaled cells")

# ---- 6. injected dispatch fault: typed internal error, never cached ------

set(twice ${WORKDIR}/serve_twice.txt)
file(WRITE ${twice} [[{"op":"generate","id":"g1","params":{"E":5,"b":64,"k":1}}
{"op":"generate","id":"g2","params":{"E":5,"b":64,"k":1}}
]])
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env WCM_FAILPOINTS=serve.dispatch=0:1
          ${LOADGEN} --socket @wcm-ci-${run_id}-fp --spawn ${WCMD}
          --script ${twice} --out ${WORKDIR}/serve_fp.txt --drain
  RESULT_VARIABLE rv OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
if(NOT rv EQUAL 1)
  message(FATAL_ERROR
    "dispatch-fault run: expected exit 1 (one typed error), got ${rv}\n"
    "stderr: ${stderr}")
endif()
if(NOT stderr MATCHES "daemon exited 0")
  message(FATAL_ERROR "daemon did not survive the dispatch fault:\n${stderr}")
endif()
file(STRINGS ${WORKDIR}/serve_fp.txt fp_lines)
list(GET fp_lines 0 fp_first)
list(GET fp_lines 1 fp_second)
if(NOT fp_first MATCHES "\"type\":\"internal\"")
  message(FATAL_ERROR "injected fault was not answered 'internal': ${fp_first}")
endif()
if(NOT fp_second MATCHES "\"id\":\"g2\",\"ok\":true")
  message(FATAL_ERROR
    "identical resend after the fault did not recover (the error must "
    "never be cached): ${fp_second}")
endif()

file(REMOVE_RECURSE ${WORKDIR})
