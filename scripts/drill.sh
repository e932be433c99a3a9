#!/bin/sh
# drill.sh DRILL [BENCH.json] — boot the topology a serving drill needs, run
# its scenarios/*.json through mpass-load (which does the /healthz
# preflight and every /metrics check), then drain every daemon gracefully.
# Passing runs print benchmark lines; given BENCH.json they are written
# there by cmd/benchjson, which never overwrites an existing file unless
# FORCE_BENCH=1. Drills (Makefile target):
#
#   smoke     1 replica: scan, attack, streamed upload (serve-smoke)
#   faults    1 replica with oracle fault injection  (serve-faults)
#   reload    1 replica, 3 model swaps under load    (reload-smoke)
#   bench     1 replica, bigger corpus and burst     (bench-json)
#   cluster   3 replicas + gateway: single vs fleet, replica kill drill,
#             host-aware throughput gate             (cluster-smoke)
#   scenario  2 replicas + gateway with scenarios/tenants.json: negative
#             drill, noisy-neighbor, SIGHUP auth drill (scenario-gate)
#   up        quickstart: replicas on :9001-:9003, gateway on :8877,
#             foreground until Ctrl-C
set -eu

drill="${1:-}"
out="${2:-}"
case "$drill" in
	smoke|faults|reload|bench|cluster|scenario|up) ;;
	*) echo "usage: $0 smoke|faults|reload|bench|cluster|scenario|up [BENCH.json]" >&2; exit 2 ;;
esac

tmp="$(mktemp -d)"
pids=""
cleanup() {
	status=$?
	for p in $pids; do
		kill "$p" 2>/dev/null || true
		wait "$p" 2>/dev/null || true
	done
	rm -rf "$tmp"
	exit $status
}
trap cleanup EXIT INT TERM

for b in mpassd mpass-gateway mpass-load benchjson; do
	go build -o "$tmp/$b" "./cmd/$b"
done

# start NAME ADDR CMD...: run a daemon that writes its bound address to
# $tmp/NAME.addr, and wait until it does (so port 0 works). Records the pid
# as pid_NAME and the address as addr_NAME.
start() {
	name=$1 listen=$2
	shift 2
	"$@" -addr "$listen" -addr-file "$tmp/$name.addr" -drain 30s >&2 &
	pid=$!
	pids="$pid $pids" # newest first: the gateway drains before its replicas
	i=0
	while [ ! -s "$tmp/$name.addr" ]; do
		i=$((i + 1))
		if [ "$i" -gt 1200 ] || ! kill -0 "$pid" 2>/dev/null; then
			echo "drill: $name never started listening" >&2
			exit 1
		fi
		sleep 0.1
	done
	eval "pid_$name=$pid addr_$name=$(cat "$tmp/$name.addr")"
}

# fleet N [MPASSD FLAGS...]: boot N replicas r0..rN-1. r0 trains and
# persists per-engine envelopes before it listens; the rest load them.
fleet() {
	n=$1
	shift
	k=0
	replicas=""
	while [ "$k" -lt "$n" ]; do
		listen=127.0.0.1:0
		if [ "$drill" = up ]; then listen="127.0.0.1:900$((k + 1))"; fi
		start "r$k" "$listen" "$tmp/mpassd" -models "$tmp/models" \
			-malware "${mal:-24}" -benign "${ben:-24}" -max-queries 40 "$@"
		replicas="$replicas${replicas:+,}$(eval echo "\$addr_r$k")"
		k=$((k + 1))
	done
}

# gateway: front the fleet; a short probe interval lets the kill drill
# converge in sub-second time.
gateway() {
	listen=127.0.0.1:0
	if [ "$drill" = up ]; then listen=127.0.0.1:8877; fi
	start gw "$listen" "$tmp/mpass-gateway" -replicas "$replicas" -health-interval 200ms
}

# run ADDR SCENARIO [FLAGS...]: one scenario run. Its benchmark line goes
# to stdout, which the drill's case block collects in $tmp/bench; runs that
# are not part of the drill's record send it to /dev/null.
run() {
	addr=$1 sc=$2
	shift 2
	"$tmp/mpass-load" -addr "$addr" -scenario "scenarios/$sc.json" "$@"
}

# refuse ADDR SCENARIO VIOLATION [FLAGS...]: a run that must fail its gate,
# and fail it on a judged threshold whose message contains VIOLATION. Any
# other exit (bad scenario file, unreachable target) fails the drill.
refuse() {
	addr=$1 sc=$2 want=$3
	shift 3
	if run "$addr" "$sc" "$@" >/dev/null 2>"$tmp/refuse.log"; then
		echo "drill: NEGATIVE DRILL FAILED — $sc passed its gate" >&2
		exit 1
	fi
	if ! grep -q "^THRESHOLD VIOLATED: .*$want" "$tmp/refuse.log"; then
		cat "$tmp/refuse.log" >&2
		echo "drill: NEGATIVE DRILL FAILED — $sc did not fail on \"$want\"" >&2
		exit 1
	fi
	echo "drill: negative drill ok ($sc fails on \"$want\")" >&2
}

case "$drill" in
smoke)
	fleet 1
	run "$addr_r0" serve-smoke
	;;
faults)
	# Hang rate 0.2 exercises the job deadline; error rate 0.3 the
	# retry/breaker ladder; latency 0.3 the ctx-bounded delay path. The
	# short -job-deadline keeps hang-struck jobs (and the drain) fast.
	fleet 1 -fault-hang 0.2 -fault-error 0.3 -fault-latency 0.3 -fault-delay 20ms -job-deadline 10s
	run "$addr_r0" serve-faults
	;;
reload)
	# The reload loader re-reads the envelopes r0 persisted: identical
	# bytes, so the drill also proves a same-weights swap is
	# score-invisible. Every swap must pass the health and finite-score
	# certification.
	fleet 1
	run "$addr_r0" serve-reload
	;;
bench)
	mal=40 ben=40 fleet 1
	run "$addr_r0" serve-bench
	;;
cluster)
	fleet 3
	gateway
	run "$addr_r0" cluster-single
	run "$addr_gw" cluster-gateway
	# Attack jobs through the gateway exercise the {replica}/{id} job
	# namespace. They run apart from the timed burst, so the throughput
	# gate below compares the same scan-only traffic on both sides.
	run "$addr_gw" cluster-attacks >/dev/null
	# Kill drill: keys of the dead shard are retried onto the rebuilt
	# ring's owner, never dropped. Inherited keys cold-miss on their new
	# home, so the scenario lifts the hit-ratio floor but keeps the miss
	# bound and zero failures.
	kill -KILL "$pid_r2"
	wait "$pid_r2" 2>/dev/null || true
	live=""
	for p in $pids; do [ "$p" = "$pid_r2" ] || live="$live $p"; done
	pids=$live
	run "$addr_gw" cluster-kill >/dev/null
	# Host-aware throughput gate. With >= 4 CPUs a 3-replica fleet must
	# beat one replica by >= 2.5x; on smaller hosts the replicas
	# time-slice the same cores, so the gate degrades to a sanity bound
	# that still catches a pathological gateway.
	cpus="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
	if [ "$cpus" -ge 4 ]; then min=2.5; else min=0.2; fi
	"$tmp/benchjson" -gate "BenchmarkScenarioClusterSingle,BenchmarkScenarioClusterGateway,$min" \
		<"$tmp/bench" >/dev/null
	;;
scenario)
	fleet 2 -tenants scenarios/tenants.json
	gateway
	refuse "$addr_gw" noisy-neighbor "p99" -scenario-max-p99 1ns
	run "$addr_gw" noisy-neighbor
	# SIGHUP re-reads the allowlist in place: authenticated traffic must
	# keep flowing and anonymous traffic keep being rejected.
	kill -HUP "$pid_r0"
	sleep 0.3
	run "$addr_r0" auth-acme >/dev/null
	refuse "$addr_r0" auth-anonymous "no compliant request succeeded"
	;;
up)
	fleet 3
	gateway
	echo "drill: gateway on $addr_gw fronting $replicas (Ctrl-C to stop)" >&2
	wait "$pid_gw"
	exit 0
	;;
esac >"$tmp/bench"

# Graceful drain, newest first: each daemon exits non-zero if in-flight
# work failed to finish within its -drain deadline.
for p in $pids; do
	kill -TERM "$p"
	wait "$p"
done
pids=""
echo "drill: $drill graceful shutdown ok" >&2

if [ -n "$out" ]; then
	"$tmp/benchjson" ${FORCE_BENCH:+-force} -out "$out" <"$tmp/bench"
else
	cat "$tmp/bench"
fi
