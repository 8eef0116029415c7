"""Seeded workload decks.

A deck is a list of entries; each entry is one CLI call: ``{"command":
"run" | "sweep" | "verify", "config": dict | None}``. The same workload and
seed always give the same deck. Sizes that set an op's cost (chain length,
trials) are drawn as fixed multisets and only permuted by the seed, so every
seed gives the same mix of op costs; the seed picks the physical parameters
(kappa, gate squeezing, inputs, config seeds) and the order.

The cluster squeezers at 100 dB miss the oracle's N at the baseline
(ROADMAP item 3). They are not in the timed decks; ``known_misses`` gives
them, and each run checks them once outside the timed loop.
"""

from __future__ import annotations

import random

SQUEEZING_DB = (10.0, 50.0, 100.0)
INPUT_KINDS = ("vacuum", "coherent", "squeezed")
PROTOCOLS = (
    "identity_chain",
    "squeezer_four_step",
    "repeated_squeezer",
    "offline_teleport",
    "offline_squeezer",
)
CLUSTER_SQUEEZERS = ("squeezer_four_step", "repeated_squeezer")
KNOWN_MISS_DB = 100.0
# long_chain: each op sweeps one protocol over the chain lengths (k/2, k).
# Many short sweeps and few long ones give 24 ops a pass. In two passes
# (48 ops) op_p50_ms falls in the middle of the 16 ops of k = 48 and
# op_tail_ms (p79) in the middle of the 16 ops of k = 64. A percentile near
# the edge of a cost class jumps between runs.
LONG_CHAIN_TOPS = (32, 40, 40, 48, 48, 48, 48, 64, 64, 64, 64, 128)


def timed_squeezing(protocol: str) -> list[float]:
    """Squeezing levels of a protocol in the timed decks."""
    if protocol in CLUSTER_SQUEEZERS:
        return [db for db in SQUEEZING_DB if db != KNOWN_MISS_DB]
    return list(SQUEEZING_DB)


def _input(rng: random.Random, kind: str) -> dict:
    if kind == "vacuum":
        return {"kind": "vacuum"}
    if kind == "coherent":
        return {"kind": "coherent", "re": rng.uniform(-2.0, 2.0), "im": rng.uniform(-2.0, 2.0)}
    return {"kind": "squeezed", "r": rng.uniform(0.1, 1.0), "axis": rng.choice("xp")}


def _shuffled(rng: random.Random, values) -> list:
    values = list(values)
    rng.shuffle(values)
    return values


def _run_config(rng: random.Random, protocol: str, db: float, kind: str, trials: int, size) -> dict:
    config = {
        "protocol": protocol,
        "squeezing_db": db,
        "input": _input(rng, kind),
        "seed": rng.randrange(1_000_000),
        "trials": trials,
    }
    if protocol == "identity_chain":
        config["n_nodes"] = size
    if protocol == "repeated_squeezer":
        config["segments"] = size
    if protocol in CLUSTER_SQUEEZERS:
        config["kappa"] = rng.uniform(0.05, 0.3)
    if protocol == "offline_squeezer":
        config["r_gate"] = rng.uniform(0.02, 0.5)
    return config


def protocol_mix(seed: int) -> list[dict]:
    """Every protocol at every timed squeezing level and input kind (39 runs).

    Chains have at most 9 steps and trials run from 1 to 3. Within each
    protocol the (trials, chain size) pairs are a fixed list, so the cost of
    a deck does not depend on the seed; the seed deals them to the
    (squeezing, input) cells.
    """
    rng = random.Random(f"protocol_mix:{seed}")
    deck = []
    for protocol in PROTOCOLS:
        cells = [(db, kind) for db in timed_squeezing(protocol) for kind in INPUT_KINDS]
        trials = [1, 2, 3] * (len(cells) // 3)
        if protocol == "identity_chain":
            sizes = range(2, 2 + len(cells))  # n_nodes
        elif protocol == "repeated_squeezer":
            sizes = [1] * (len(cells) // 2) + [2] * (len(cells) - len(cells) // 2)  # segments
        else:
            sizes = [None] * len(cells)
        pairs = _shuffled(rng, zip(trials, sizes))
        for (db, kind), (n_trials, size) in zip(cells, pairs):
            deck.append({"command": "run", "config": _run_config(rng, protocol, db, kind, n_trials, size)})
    return _shuffled(rng, deck)


def _sweep_config(rng: random.Random, protocol: str, db: float, top: int) -> dict:
    if protocol == "identity_chain":
        sweep = {"param": "n_nodes", "values": [top // 2 + 1, top + 1]}
    else:
        sweep = {"param": "segments", "values": [top // 8, top // 4]}
    config = {
        "protocol": protocol,
        "squeezing_db": db,
        "input": _input(rng, rng.choice(INPUT_KINDS)),
        "seed": rng.randrange(1_000_000),
        "sweep": sweep,
    }
    if protocol == "repeated_squeezer":
        config["kappa"] = rng.uniform(0.05, 0.25)
    return config


def long_chain(seed: int) -> list[dict]:
    """Chain-length sweeps from 16 to 128 steps (24 sweeps of 2 lengths).

    Each protocol sweeps (k/2, k) for k in LONG_CHAIN_TOPS, cycling through
    its timed squeezing levels.
    """
    rng = random.Random(f"long_chain:{seed}")
    deck = []
    for protocol in ("identity_chain", "repeated_squeezer"):
        levels = timed_squeezing(protocol)
        dbs = _shuffled(rng, [levels[i % len(levels)] for i in range(len(LONG_CHAIN_TOPS))])
        for top, db in zip(LONG_CHAIN_TOPS, dbs):
            deck.append({"command": "sweep", "config": _sweep_config(rng, protocol, db, top)})
    return _shuffled(rng, deck)


def verify(seed: int) -> list[dict]:
    """The invariant suite has no inputs; the seed does not change it."""
    return [{"command": "verify", "config": None}]


WORKLOADS = {"protocol_mix": protocol_mix, "long_chain": long_chain, "verify": verify}


def make_deck(workload: str, seed: int) -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return WORKLOADS[workload](seed)


def known_misses(workload: str, seed: int) -> list[dict]:
    """The workload's configs that miss the oracle's N at the baseline.

    ``protocol_mix``: each cluster squeezer at 100 dB with each input kind,
    one trial of the shortest chain. ``long_chain``: one short
    ``repeated_squeezer`` sweep at 100 dB. ``verify``: none.
    """
    rng = random.Random(f"{workload}:known_misses:{seed}")
    if workload == "protocol_mix":
        return [
            {"command": "run", "config": _run_config(rng, protocol, KNOWN_MISS_DB, kind, 1, 1)}
            for protocol in CLUSTER_SQUEEZERS
            for kind in INPUT_KINDS
        ]
    if workload == "long_chain":
        return [{"command": "sweep", "config": _sweep_config(rng, "repeated_squeezer", KNOWN_MISS_DB, 32)}]
    return []
