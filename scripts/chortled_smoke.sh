#!/usr/bin/env bash
# End-to-end smoke for cmd/chortled: start the server, map a golden
# circuit twice through it, assert the second response reports shared-
# cache hits, check that the framed reply (Accept:
# application/vnd.chortle.map) carries the same answer as the JSON one,
# check the hit shows up at /metrics, and verify SIGTERM drains
# gracefully (exit 0).
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
server_pid=""
cleanup() {
    status=$?
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    if [ "$status" -ne 0 ] && [ -f "$workdir/chortled.err" ]; then
        echo "=== smoke FAILED (exit $status); chortled logs follow ==="
        cat "$workdir/chortled.err"
    fi
    rm -rf "$workdir"
    exit "$status"
}
trap cleanup EXIT

go build -o "$workdir/chortled" ./cmd/chortled
go run ./cmd/mcnc -opt rot > "$workdir/rot.blif"

"$workdir/chortled" -addr 127.0.0.1:0 > "$workdir/chortled.out" 2>"$workdir/chortled.err" &
server_pid=$!

# The server prints "listening on <addr>" once bound.
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^listening on //p' "$workdir/chortled.out")
    [ -n "$addr" ] && break
    kill -0 "$server_pid" || { cat "$workdir/chortled.err"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "chortled never reported its address"; exit 1; }
echo "chortled on $addr"

curl -sf "http://$addr/healthz" >/dev/null

cold=$(curl -sf --data-binary @"$workdir/rot.blif" "http://$addr/map?k=4")
warm=$(curl -sf --data-binary @"$workdir/rot.blif" "http://$addr/map?k=4")

cold_luts=$(printf '%s' "$cold" | python3 -c 'import json,sys; print(json.load(sys.stdin)["luts"])')
warm_hits=$(printf '%s' "$warm" | python3 -c 'import json,sys; print(json.load(sys.stdin)["cache_hits"])')
warm_misses=$(printf '%s' "$warm" | python3 -c 'import json,sys; print(json.load(sys.stdin)["cache_misses"])')
echo "cold: $cold_luts LUTs; warm: hits=$warm_hits misses=$warm_misses"

[ "$cold_luts" -gt 0 ] || { echo "cold mapping produced no LUTs"; exit 1; }
[ "$warm_hits" -gt 0 ] || { echo "second request reported no cache hits"; exit 1; }
[ "$warm_misses" -eq 0 ] || { echo "second request missed the warm cache"; exit 1; }

# Byte-identical output across the cache temperature.
diff <(printf '%s' "$cold" | python3 -c 'import json,sys; print(json.load(sys.stdin)["blif"])') \
     <(printf '%s' "$warm" | python3 -c 'import json,sys; print(json.load(sys.stdin)["blif"])') \
    || { echo "warm BLIF differs from cold BLIF"; exit 1; }

# The framed reply to the same warm request: a metadata line of JSON,
# then the BLIF verbatim. Its BLIF, luts and cache_hits must match the
# JSON reply's.
curl -sf -D "$workdir/framed.hdr" -o "$workdir/framed.out" \
    -H 'Accept: application/vnd.chortle.map' \
    --data-binary @"$workdir/rot.blif" "http://$addr/map?k=4"
grep -qi '^content-type: application/vnd.chortle.map' "$workdir/framed.hdr" \
    || { echo "framed request was not answered framed"; cat "$workdir/framed.hdr"; exit 1; }
printf '%s' "$warm" > "$workdir/warm.json"
python3 - "$workdir/warm.json" "$workdir/framed.out" <<'PY' || { echo "framed reply differs from JSON reply"; exit 1; }
import json, sys
ref = json.load(open(sys.argv[1]))
meta, blif = open(sys.argv[2]).read().split("\n", 1)
meta = json.loads(meta)
bad = [k for k in ("luts", "cache_hits") if meta[k] != ref[k]]
if "blif" in meta or blif != ref["blif"] or bad:
    sys.exit("framed: blif in metadata %s, same BLIF %s, differing %s" % ("blif" in meta, blif == ref["blif"], bad))
print("framed: %d LUTs, hits=%d, %d BLIF bytes match the JSON reply" % (meta["luts"], meta["cache_hits"], len(blif)))
PY

# Buffer the scrape before grepping: grep -q on a pipe would SIGPIPE
# curl and trip pipefail even on a match.
metrics=$(curl -sf "http://$addr/metrics")
printf '%s\n' "$metrics" | grep -q '^chortle_shape_cache_hits [1-9]' \
    || { echo "/metrics does not show cache hits"; exit 1; }

kill -TERM "$server_pid"
wait "$server_pid" || { echo "chortled did not exit cleanly on SIGTERM"; exit 1; }
grep -q drained "$workdir/chortled.err" || { echo "chortled did not report a drain"; exit 1; }
echo "smoke OK"
