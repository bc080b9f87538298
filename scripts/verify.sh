#!/usr/bin/env sh
# Full verification gate: rustfmt check, release build and offline test
# suite across the whole workspace (the root manifest's `default-members`
# lists every crate, so a bare `cargo test` runs every member's suites),
# warning-free clippy and rustdoc, and end-to-end CLI, daemon and
# bench-runner smokes.
set -eu

cd "$(dirname "$0")/.."

# Formatting drift fails first, before any build.
cargo fmt --all --check

cargo build --release
cargo test -q

# The analyzers against the brute-force oracle once more in release mode,
# which drops overflow checks and debug assertions: a wrapped count (the
# window's miss filter, a histogram bin) must still show as a wrong
# distance. The sampled engine's accuracy suites run there too, so a bad
# filter count or dense-count fold on the sampled path shows as well.
cargo test --release -q -p reuselens-core --test property_oracle \
    --test analyzer_vs_oracle --test checkpoint_resume --test sampling_accuracy
cargo test --release -q -p reuselens-cache --test sampled_miss_bounds

# The suites that used to serialize on process-global obs slots record
# through `Obs` scopes now; three more runs at default test parallelism
# catch cross-test interference that a single run can miss.
for _ in 1 2 3; do
    cargo test -q --test obs_identity --test daemon_stress --test static_vs_dynamic
    cargo test -q -p reuselens-core --test checkpoint_resume
    cargo test -q -p reuselens-obs
done

cargo clippy --workspace --all-targets --no-deps -- -D warnings

# Broken intra-doc links (for example after a module moves) fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Kill-and-resume CLI smoke: a checkpointed run whose newest snapshot is
# then torn mid-file must resume to a profile byte-identical to a plain
# run's. Exercises --checkpoint-dir/--checkpoint-every/--resume end to
# end, including fallback past the torn file.
CKPT_TMP="target/verify-ckpt"
rm -rf "$CKPT_TMP" && mkdir -p "$CKPT_TMP"
./target/release/reuselens kernel stream \
    --save-profile "$CKPT_TMP/plain.rlp" >/dev/null
./target/release/reuselens kernel stream \
    --checkpoint-dir "$CKPT_TMP/snaps" --checkpoint-every 10000 \
    --save-profile "$CKPT_TMP/ckpt.rlp" >/dev/null
newest=$(ls "$CKPT_TMP/snaps"/*.rlsnap | sort | tail -n 1)
head -c 13 "$newest" > "$newest.torn" && mv "$newest.torn" "$newest"
./target/release/reuselens kernel stream \
    --checkpoint-dir "$CKPT_TMP/snaps" --checkpoint-every 10000 --resume \
    --save-profile "$CKPT_TMP/resumed.rlp" >/dev/null
cmp "$CKPT_TMP/plain.rlp" "$CKPT_TMP/ckpt.rlp"
cmp "$CKPT_TMP/plain.rlp" "$CKPT_TMP/resumed.rlp"
# The same kill-and-resume leg sampled: all three runs must save the same
# bytes.
SAMPLED="--sample-rate 0.5"
# shellcheck disable=SC2086 # $SAMPLED is a flag list
./target/release/reuselens kernel stream $SAMPLED \
    --save-profile "$CKPT_TMP/sampled-plain.rlp" >/dev/null
# shellcheck disable=SC2086
./target/release/reuselens kernel stream $SAMPLED \
    --checkpoint-dir "$CKPT_TMP/sampled-snaps" --checkpoint-every 10000 \
    --save-profile "$CKPT_TMP/sampled-ckpt.rlp" >/dev/null
newest=$(ls "$CKPT_TMP/sampled-snaps"/*.rlsnap | sort | tail -n 1)
head -c 13 "$newest" > "$newest.torn" && mv "$newest.torn" "$newest"
# shellcheck disable=SC2086
./target/release/reuselens kernel stream $SAMPLED \
    --checkpoint-dir "$CKPT_TMP/sampled-snaps" --checkpoint-every 10000 --resume \
    --save-profile "$CKPT_TMP/sampled-resumed.rlp" >/dev/null
cmp "$CKPT_TMP/sampled-plain.rlp" "$CKPT_TMP/sampled-ckpt.rlp"
cmp "$CKPT_TMP/sampled-plain.rlp" "$CKPT_TMP/sampled-resumed.rlp"
# And adaptive: at a budget of 64 blocks the 128 B grain halves its rate
# within its first 10,000 events, so every snapshot it writes, the torn
# one included, carries rate drops and evictions in its sampler books.
ADAPTIVE="--sample-rate auto:64"
# shellcheck disable=SC2086
./target/release/reuselens kernel stream $ADAPTIVE \
    --save-profile "$CKPT_TMP/adaptive-plain.rlp" >/dev/null
# shellcheck disable=SC2086
./target/release/reuselens kernel stream $ADAPTIVE \
    --checkpoint-dir "$CKPT_TMP/adaptive-snaps" --checkpoint-every 10000 \
    --metrics "$CKPT_TMP/adaptive.prom" \
    --save-profile "$CKPT_TMP/adaptive-ckpt.rlp" >/dev/null 2>&1
drops=$(sed -n 's/^reuselens_sample_rate_drops_total //p' "$CKPT_TMP/adaptive.prom")
if [ "${drops:-0}" -eq 0 ]; then
    echo "adaptive kill-and-resume leg: no sampling rate drop" >&2
    exit 1
fi
newest=$(ls "$CKPT_TMP/adaptive-snaps"/*.rlsnap | sort | tail -n 1)
head -c 13 "$newest" > "$newest.torn" && mv "$newest.torn" "$newest"
# shellcheck disable=SC2086
./target/release/reuselens kernel stream $ADAPTIVE \
    --checkpoint-dir "$CKPT_TMP/adaptive-snaps" --checkpoint-every 10000 --resume \
    --save-profile "$CKPT_TMP/adaptive-resumed.rlp" >/dev/null
cmp "$CKPT_TMP/adaptive-plain.rlp" "$CKPT_TMP/adaptive-ckpt.rlp"
cmp "$CKPT_TMP/adaptive-plain.rlp" "$CKPT_TMP/adaptive-resumed.rlp"
rm -rf "$CKPT_TMP"

# One-lane smoke: each workload runs once as is and once pinned to one
# core. With one core its two grains ride one replay lane, each stretch
# played into both; with two they get a lane each. The saved profiles
# must be byte-identical, and the lane counter must read 2 and 1 (on a
# one-core host the unpinned run has one lane too).
LANE_TMP="target/verify-lanes"
rm -rf "$LANE_TMP" && mkdir -p "$LANE_TMP"
lanes_of() { # <metrics file>: the replay_lanes counter it recorded
    sed -n 's/^reuselens_replay_lanes_total \([0-9]*\)$/\1/p' "$1"
}
cores=$(nproc)
for run in "sweep3d --mesh 6" "gtc --mgrid 64 --micell 4"; do
    for pin in all one; do
        set --
        [ "$pin" = one ] && set -- taskset -c 0
        # shellcheck disable=SC2086 # $run is a word list
        "$@" ./target/release/reuselens $run \
            --save-profile "$LANE_TMP/$pin.rlp" \
            --metrics "$LANE_TMP/$pin.prom" >/dev/null 2>&1
    done
    cmp "$LANE_TMP/all.rlp" "$LANE_TMP/one.rlp" \
        || { echo "verify: one-lane and two-lane runs of $run disagree" >&2; exit 1; }
    want=2
    [ "$cores" -ge 2 ] || want=1
    [ "$(lanes_of "$LANE_TMP/all.prom")" = "$want" ] \
        && [ "$(lanes_of "$LANE_TMP/one.prom")" = 1 ] \
        || { echo "verify: $run ran on $(lanes_of "$LANE_TMP/all.prom") and" \
                  "$(lanes_of "$LANE_TMP/one.prom") lanes, not $want and 1" >&2; exit 1; }
done
rm -rf "$LANE_TMP"

# Live-telemetry CLI smoke: a run with --serve-metrics must answer
# /metrics, /healthz, and /timeline over plain HTTP while (or just after)
# analyzing, then exit cleanly. The port is OS-assigned; the bound
# address is scraped from the stderr banner.
SRV_TMP="target/verify-serve"
rm -rf "$SRV_TMP" && mkdir -p "$SRV_TMP"
./target/release/reuselens sweep3d --mesh 48 \
    --serve-metrics 127.0.0.1:0 --heartbeat 0.5 \
    --log-jsonl "$SRV_TMP/events.jsonl" \
    --save-profile "$SRV_TMP/served.rlp" >/dev/null 2>"$SRV_TMP/stderr.log" &
SRV_PID=$!
addr=""
tries=0
while [ -z "$addr" ] && [ "$tries" -lt 100 ]; do
    addr=$(sed -n 's|^serving telemetry on http://\([^/]*\)/$|\1|p' \
        "$SRV_TMP/stderr.log")
    [ -n "$addr" ] || { tries=$((tries + 1)); sleep 0.1; }
done
[ -n "$addr" ] || { echo "verify: no telemetry banner" >&2; exit 1; }
curl -fsS "http://$addr/metrics" | grep -q '^reuselens_' \
    || { echo "verify: /metrics scrape failed" >&2; exit 1; }
curl -fsS "http://$addr/healthz" | grep -q '"status":"ok"' \
    || { echo "verify: /healthz scrape failed" >&2; exit 1; }
curl -fsS "http://$addr/timeline" >/dev/null \
    || { echo "verify: /timeline scrape failed" >&2; exit 1; }
wait "$SRV_PID"
grep -q '"event":"run_finished"' "$SRV_TMP/events.jsonl" \
    || { echo "verify: JSONL log missing run_finished" >&2; exit 1; }
rm -rf "$SRV_TMP"

# Daemon CLI smoke: start `reuselens serve` over stdin with one worker
# (serial semantics, so the replays see the capture), run a capture and
# two replays saving profiles to disk, and require the two saved profile
# files byte-identical. Those replays use the buffer the daemon kept
# from the capture, so a second daemon process over the same store then
# replays the trace cold (loaded and verified from disk), and its saved
# profile must match too — the stored trace round-trips
# deterministically. Each process also replays two grains at once: the
# second runs two workers, so its two-grain replays may share one replay
# lane or spread over two, and every one of them must save the same
# bytes. A third process then evicts and re-captures the trace (see
# below). The first process also replays under a 10-event budget, the one
# replay budget a request can set: that job must fail typed with the
# events-cap message while its siblings succeed. EOF on stdin is the
# clean-shutdown path.
#
# The first replay of a resident trace builds its decoded form, and later
# ones replay from it. So the first process replays exact (job-2, which
# builds it), then sampled, then exact again (job-4), and both exact
# replies must carry the `profiles_crc` of the cold second process's
# replay (its job-1), which loaded the trace from disk.
DMN_TMP="target/verify-daemon"
rm -rf "$DMN_TMP" && mkdir -p "$DMN_TMP"
printf '%s\n' \
    '{"kind":"capture","id":"smoke","workload":"sweep3d","mesh":6,"grains":[64]}' \
    '{"kind":"replay","id":"smoke","grains":[64],"save":"target/verify-daemon/a.rlp"}' \
    '{"kind":"replay","id":"smoke","grains":[64],"sample_rate":0.1}' \
    '{"kind":"replay","id":"smoke","grains":[64],"save":"target/verify-daemon/b.rlp"}' \
    '{"kind":"replay","id":"smoke","grains":[64,4096],"save":"target/verify-daemon/a2.rlp"}' \
    '{"kind":"replay","id":"smoke","grains":[64],"budget_events":10}' \
    | ./target/release/reuselens serve --store "$DMN_TMP/store" \
        --stdin --workers 1 > "$DMN_TMP/responses.ndjson" 2>/dev/null
[ "$(grep -c '"ok":true' "$DMN_TMP/responses.ndjson")" = 5 ] \
    || { echo "verify: daemon smoke had a failing job" >&2; \
         cat "$DMN_TMP/responses.ndjson" >&2; exit 1; }
grep '"ok":false' "$DMN_TMP/responses.ndjson" \
    | grep -q 'analysis budget exceeded: events cap 10 crossed after' \
    || { echo "verify: the budget_events replay did not trip the events cap" >&2; \
         cat "$DMN_TMP/responses.ndjson" >&2; exit 1; }
cmp "$DMN_TMP/a.rlp" "$DMN_TMP/b.rlp" \
    || { echo "verify: daemon replays disagree" >&2; exit 1; }
cp "$DMN_TMP/store/smoke.seg0000.rlseg" "$DMN_TMP/first.rlseg"
printf '%s\n' \
    '{"kind":"replay","id":"smoke","grains":[64],"save":"target/verify-daemon/c.rlp"}' \
    '{"kind":"replay","id":"smoke","grains":[64,4096],"save":"target/verify-daemon/b2.rlp"}' \
    '{"kind":"replay","id":"smoke","grains":[64,4096],"save":"target/verify-daemon/c2.rlp"}' \
    | ./target/release/reuselens serve --store "$DMN_TMP/store" \
        --stdin --workers 2 > "$DMN_TMP/cold.ndjson" 2>/dev/null
[ "$(grep -c '"ok":true' "$DMN_TMP/cold.ndjson")" = 3 ] \
    || { echo "verify: cold daemon replay failed" >&2; \
         cat "$DMN_TMP/cold.ndjson" >&2; exit 1; }
cmp "$DMN_TMP/a.rlp" "$DMN_TMP/c.rlp" \
    || { echo "verify: resident and cold daemon replays disagree" >&2; exit 1; }
crc_of() { # <responses> <job>: the profiles_crc of that job's reply
    grep "\"job\":\"$2\"" "$1" | sed -n 's/.*"profiles_crc":\([0-9]*\).*/\1/p'
}
cold_crc=$(crc_of "$DMN_TMP/cold.ndjson" job-1)
for job in job-2 job-4; do
    [ -n "$cold_crc" ] && [ "$(crc_of "$DMN_TMP/responses.ndjson" "$job")" = "$cold_crc" ] \
        || { echo "verify: exact replay $job around a sampled one disagrees with the cold replay" >&2; \
             cat "$DMN_TMP/responses.ndjson" "$DMN_TMP/cold.ndjson" >&2; exit 1; }
done
for f in b2 c2; do
    cmp "$DMN_TMP/a2.rlp" "$DMN_TMP/$f.rlp" \
        || { echo "verify: two-grain daemon replays disagree ($f)" >&2; exit 1; }
done
# A third process evicts the trace, captures it again under the same id
# and replays it: the streamed writer must publish the very same segment
# bytes, and the replay must save the same profile. One worker, so the
# three jobs run in order.
printf '%s\n' \
    '{"kind":"evict","id":"smoke"}' \
    '{"kind":"capture","id":"smoke","workload":"sweep3d","mesh":6,"grains":[64]}' \
    '{"kind":"replay","id":"smoke","grains":[64],"save":"target/verify-daemon/d.rlp"}' \
    | ./target/release/reuselens serve --store "$DMN_TMP/store" \
        --stdin --workers 1 > "$DMN_TMP/recapture.ndjson" 2>/dev/null
[ "$(grep -c '"ok":true' "$DMN_TMP/recapture.ndjson")" = 3 ] \
    || { echo "verify: daemon evict and re-capture failed" >&2; \
         cat "$DMN_TMP/recapture.ndjson" >&2; exit 1; }
cmp "$DMN_TMP/first.rlseg" "$DMN_TMP/store/smoke.seg0000.rlseg" \
    || { echo "verify: a re-captured trace's segment differs" >&2; exit 1; }
cmp "$DMN_TMP/a.rlp" "$DMN_TMP/d.rlp" \
    || { echo "verify: replay after re-capture disagrees" >&2; exit 1; }
rm -rf "$DMN_TMP"

# Informational perf smoke: exercises the bench-runner end to end and
# refreshes a throwaway snapshot, but never gates on machine speed (no
# --baseline here; diff against a committed BENCH_reuselens.json by hand).
cargo run --release -q -p reuselens-bench --bin bench-runner -- \
    --smoke --out target/bench_smoke.json
