"""Seeded request scripts for serve_mixed and the traced runs.

Every input the program receives is generated here from the --seed
argument; the same seed gives byte-identical scripts. A script line is
tab-separated: conn, kind, points, cap, id, request JSON (see
tool/script.hh).
"""

import json
import random

CONNECTIONS = 4
ISAS = ("mmx", "mom")
THREADS = (1, 2, 4, 8)
CAP = 5000              # maxCycles of small requests
SHARED_SWEEPS = 4
# serve_mixed sends at least SMALL_FLOOR 1-point requests per run, the
# fewest a p95 may be reported from (percentiles.min_samples(95)). The 4
# connections answer about SWEEPS_PER_RUN sweeps in a 45-second run
# (2.2-2.8 per second measured on a 4-CPU Xeon VM), each followed by a
# gap of small requests, so a gap holds ceil(SMALL_FLOOR /
# SWEEPS_PER_RUN) of them.
SMALL_FLOOR = 200
SWEEPS_PER_RUN = 96
SMALL_PER_GAP = -(-SMALL_FLOOR // SWEEPS_PER_RUN)


class _Seeds:
    """Distinct request seeds; a request seed picks the point keys."""

    def __init__(self, rng):
        self._rng = rng
        self._used = set()

    def fresh(self):
        while True:
            s = self._rng.randrange(1, 1 << 40)
            if s not in self._used:
                self._used.add(s)
                return s


def _request(rid, isas, threads, seed, cap):
    req = {"schemaVersion": 1, "id": rid, "isas": list(isas),
           "threads": list(threads), "memModels": ["perfect"],
           "quick": True, "seed": seed}
    if cap:
        req["maxCycles"] = cap
    return req


def _line(conn, kind, rid, isas, threads, seed, cap):
    req = _request(rid, isas, threads, seed, cap)
    points = len(isas) * len(threads)
    return "%d\t%s\t%d\t%d\t%s\t%s" % (
        conn, kind, points, cap, rid,
        json.dumps(req, separators=(",", ":")))


def fig6(seed):
    req = {"schemaVersion": 1, "id": "fig6", "bench": "fig6",
           "quick": True, "seed": seed}
    return ["0\tfig6\t28\t0\tfig6\t" + json.dumps(req, separators=(",", ":"))]


def serve_mixed(seed, cycles_per_conn=64):
    """(prime, main): per connection, cycles of
    cold sweep, small requests, shared sweep, small requests.

    Cold and shared sweeps run to completion (no cap) at perfect memory;
    cold ones are unique to their connection, shared ones are drawn from
    a set all connections share (in-flight dedup first, store and
    memory-cache replays later). Alternating them makes half the sweeps
    shared, as `momsim loadgen`'s default --overlap 50 does. Small
    requests are distinct capped 1-point points, SMALL_PER_GAP after
    each sweep on average; the +-2 jitter, and a lead-in of 0 to
    2 x SMALL_PER_GAP before a connection's first sweep, keep the
    connections from running in step, so a run samples the mix rather
    than one alignment of it. The prime request builds the daemon's
    workload during set-up and shares no key with the script.
    """
    rng = random.Random("serve_mixed/%d" % seed)
    seeds = _Seeds(rng)
    shared = [seeds.fresh() for _ in range(SHARED_SWEEPS)]
    prime = [_line(0, "prime", "prime", ["mmx"], [1], seeds.fresh(), CAP)]
    main = []
    for conn in range(CONNECTIONS):
        n = 0

        def add(kind, isas, threads, s, cap):
            nonlocal n
            main.append(_line(conn, kind, "c%d-%d" % (conn, n), isas,
                              threads, s, cap))
            n += 1

        def smalls(count):
            for _ in range(count):
                add("small1", [rng.choice(ISAS)], [rng.choice(THREADS)],
                    seeds.fresh(), CAP)

        def gap():
            smalls(rng.randint(SMALL_PER_GAP - 2, SMALL_PER_GAP + 2))

        smalls(rng.randint(0, 2 * SMALL_PER_GAP))
        for _ in range(cycles_per_conn):
            add("cold8", ISAS, THREADS, seeds.fresh(), 0)
            gap()
            add("shared8", ISAS, THREADS, rng.choice(shared), 0)
            gap()
    return prime, main


def write(path, lines):
    with open(path, "w") as f:
        f.write("# perfbench script: conn kind points cap id request\n")
        for line in lines:
            f.write(line + "\n")
