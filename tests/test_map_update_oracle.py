"""update_map's one-block rebuild against the block operations it replaced.

The reference below updates a map the way longnav did before the update
became one gather: the kept rows through ``take``, the insertion through an
unmatched block that is ranked, cut, moved and stamped as new map rows, and
the two joined by ``concat``. Every array of the new block must equal the
reference's.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longnav.features import FeatureBlock, LocalMap, pack_features
from longnav.fremen import FremenModel
from longnav.registration import (MatchOutcome, Pairs, RegistrationResult,
                                  view_product)
from longnav.strategies import (DEFAULT_PERIODS, StrategyConfig,
                                select_active_indices, update_map)

from blocks import ROW

N, C, I = map(int, MatchOutcome)
WIDTH = 128
IMAGE_WIDTH = 640
KINDS = ("static", "latest", "aggressive", "strict", "summary", "score",
         "fremen")
REMOVED = {"static": (), "latest": (N, C, I), "aggressive": (I, N),
           "strict": (I,), "summary": (I,)}


# --- the oracle: block operations as they were ------------------------------

def _concat_models(a, b):
    m = FremenModel(a.periods, 0)
    for name in ("n_obs", "mu", "re", "im"):
        setattr(m, name, np.concatenate((getattr(a, name), getattr(b, name))))
    return m


def _concat(a, b):
    """Rows of a followed by rows of b; a itself when b is None or empty."""
    if b is None or not len(b):
        return a
    if not len(a):
        return b

    def cat(u, v):
        return None if u is None or v is None else np.concatenate((u, v))

    temporal = (None if a.temporal is None
                else _concat_models(a.temporal, b.temporal))
    return FeatureBlock(cat(a.x, b.x), cat(a.y, b.y), cat(a.words, b.words),
                        a.width, inserted_at=cat(a.inserted_at, b.inserted_at),
                        score=cat(a.score, b.score), temporal=temporal,
                        ids=cat(a.ids, b.ids), bits=cat(a._bits, b._bits))


def _hamming(a_words, b_words):
    """All-pairs Hamming distances of packed descriptors, by popcount."""
    xor = a_words[:, None, :] ^ b_words[None, :, :]
    return np.unpackbits(xor.view(np.uint8), axis=-1).sum(axis=-1,
                                                          dtype=np.int64)


def _reference_update(lm, view, reg, cfg, t, traversal, active):
    """update_map as the block operations did it; returns (rows removed,
    insert count) of a successful registration."""
    feats = lm.features
    outcome_of = np.zeros(len(feats), dtype=np.int8)
    if reg.delta is not None:
        outcome_of[active] = reg.outcomes
    v = np.where(outcome_of == C, cfg.s_c,
                 np.where(outcome_of == I, -cfg.s_i, -cfg.s_n))
    if cfg.kind == "score":
        np.add(feats.score, v, out=feats.score)
    elif cfg.kind == "fremen":
        feats.temporal.add_observation(v, t)
    if reg.delta is None:
        return None

    n = len(feats)
    if cfg.kind in ("score", "fremen"):
        key = feats.score if cfg.kind == "score" else feats.temporal.mu
        remove = np.zeros(n, dtype=bool)
        remove[np.sort(np.lexsort((feats.inserted_at, key))[
            :math.ceil(cfg.exchange_fraction * n)])] = True
    else:
        remove = np.isin(outcome_of, REMOVED[cfg.kind])
    count = (None if cfg.kind == "latest"
             else math.ceil(cfg.summary_add_fraction * len(view))
             if cfg.kind == "summary" else int(np.count_nonzero(remove)))
    rows = view if count is None else None
    if count:
        unmatched = np.ones(len(view), dtype=bool)
        unmatched[reg.pairs.view_idx] = False
        cands = view.take(unmatched)
        if len(cands) and len(feats):
            # the ranking unpacked both sides, and bit rows travel with rows
            pack_features(cands)
            pack_features(feats)
            dist = _hamming(cands.words, feats.words).min(axis=1)
            cands = cands.take(np.argsort(-dist, kind="stable"))
        rows = cands.take(slice(count))
    kept = feats.take(~remove) if remove.any() else feats
    new = None
    if rows is not None:
        hi = np.nextafter(float(IMAGE_WIDTH), 0.0)
        moved = rows.with_x(np.clip(rows.x - reg.delta, 0.0, hi))
        new = moved.as_map(traversal, None if feats.temporal is None
                           else FremenModel(cfg.fremen_periods, len(rows)))
    lm.features = _concat(kept, new)
    return int(np.count_nonzero(remove)), count


# --- cases -------------------------------------------------------------------

def _block(pool, rows, rng, state):
    n = len(rows)
    block = FeatureBlock(rng.uniform(0, IMAGE_WIDTH, n), rng.uniform(0, 480, n),
                         pool[np.asarray(rows, dtype=np.intp)].reshape(n, 2),
                         WIDTH)
    if state is not None:
        block.inserted_at, block.score, obs = state
        if obs is not None:
            block.temporal = FremenModel(DEFAULT_PERIODS, n)
            for t, v in enumerate(obs):
                block.temporal.add_observation(v, 3600.0 * t + 60.0)
    return block


def _twin(block):
    """A block of the same rows and state that owns its mutable state."""
    t = block.temporal
    return FeatureBlock(block.x, block.y, block.words, block.width,
                        inserted_at=block.inserted_at,
                        score=None if block.score is None
                        else block.score.copy(),
                        temporal=None if t is None else t.copy(),
                        ids=block.ids, bits=block._bits)


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _arrays(block):
    out = {"x": block.x, "y": block.y, "words": block.words, "ids": block.ids,
           "bits": block._bits, "inserted_at": block.inserted_at,
           "score": block.score}
    if block.temporal is not None:
        out.update((name, getattr(block.temporal, name))
                   for name in ("n_obs", "mu", "re", "im"))
    return out


def check_one_block_update(case):
    """Run update_map and the reference on twin maps; every array of the
    new block must equal the reference's. Returns the reference's (rows
    removed, insert count), None on a failed registration."""
    rng = np.random.default_rng(case["seed"])
    pool = np.array(case["pool"], dtype=np.uint64)
    n = len(case["map_rows"])
    obs = case["obs"] if case["kind"] == "fremen" else None
    feats = _block(pool, case["map_rows"], rng,
                   (np.array(case["inserted_at"], dtype=np.int64),
                    np.array(case["score"]), obs))
    view = _block(pool, case["view_rows"], rng, None)
    if case["pack_map"]:
        pack_features(feats)
    if case["pack_view"]:
        pack_features(view)
    cfg = StrategyConfig(kind=case["kind"], m=case["m"],
                         exchange_fraction=case["exchange_fraction"],
                         summary_add_fraction=case["add_fraction"])
    t, traversal = 7200.0, 5
    active = select_active_indices(feats, cfg, t)
    matched = np.flatnonzero(case["matched"])
    outcomes = np.array(case["outcomes"][:len(active)], dtype=np.int8)
    pairs = Pairs(*_read_only(np.arange(len(matched), dtype=np.int64),
                              matched.astype(np.int64),
                              np.zeros(len(matched)),
                              np.zeros(len(matched), dtype=np.int64)))
    reg = RegistrationResult(None if case["failed"] else case["delta"], pairs,
                             *_read_only(outcomes),
                             int(np.count_nonzero(outcomes == C)))
    share = None
    if case["use_share"] and len(active) and len(view):
        share, = view_product([_twin(view)], [feats.take(active)])

    new_view, ref_view = _twin(view), _twin(view)
    new_lm, ref_lm = (LocalMap(0, 0.0, _twin(feats)) for _ in range(2))
    before_new, before_ref = new_lm.features, ref_lm.features
    update_map(new_lm, new_view, reg, cfg, t, traversal, active_indices=active,
               image_width=IMAGE_WIDTH, share=share)
    info = _reference_update(ref_lm, ref_view, reg, cfg, t, traversal, active)

    got, want = new_lm.features, ref_lm.features
    assert (got is before_new) == (want is before_ref)
    assert len(got) == len(want) and got.width == want.width
    got_arrays, want_arrays = _arrays(got), _arrays(want)
    assert got_arrays.keys() == want_arrays.keys()
    for name, w in want_arrays.items():
        g = got_arrays[name]
        if name == "bits" and not len(want):
            continue  # a block without rows may or may not hold bit rows
        assert (g is None) == (w is None), name
        if w is not None:
            assert g.dtype == w.dtype and np.array_equal(g, w), name
    if got.temporal is not None:
        assert got.temporal.periods == want.temporal.periods
    if case["kind"] == "latest" and info is not None and len(new_view):
        assert np.shares_memory(got.words, new_view.words)
        assert np.shares_memory(got.y, new_view.y)
        if new_view._bits is not None:
            assert np.shares_memory(got._bits, new_view._bits)
    return info


@st.composite
def update_cases(draw):
    kind = draw(st.sampled_from(KINDS))
    pool = draw(st.lists(ROW, min_size=1, max_size=6))
    index = st.integers(0, len(pool) - 1)
    map_rows = draw(st.lists(index, max_size=12))
    n = len(map_rows)
    view_rows = draw(st.lists(index, max_size=10))

    def per_row(values):
        return draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))

    return {
        "seed": draw(st.integers(0, 2**16)),
        "kind": kind, "pool": pool, "map_rows": map_rows,
        "view_rows": view_rows,
        "inserted_at": per_row([0, 1, 2]),
        "score": per_row([-1.0, 0.0, 0.5, 2.0]),
        "obs": [np.array(per_row([-1.0, 0.0, 1.0]))
                for _ in range(draw(st.integers(0, 2)))],
        "m": draw(st.integers(1, n + 2)),  # binds below n
        "failed": draw(st.booleans()),
        "outcomes": draw(st.lists(st.sampled_from([N, C, I]), min_size=n,
                                  max_size=n)),
        "matched": draw(st.lists(st.booleans(), min_size=len(view_rows),
                                 max_size=len(view_rows))),
        "delta": draw(st.sampled_from([0.0, 12.5, -40.0, 700.0, -700.0])),
        "add_fraction": draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
        "exchange_fraction": draw(st.sampled_from([0.05, 0.5, 1.0])),
        "pack_map": draw(st.booleans()), "pack_view": draw(st.booleans()),
        "use_share": draw(st.booleans()),
    }


@given(update_cases())
@settings(max_examples=300, deadline=None)
def test_one_block_update_matches_block_operations(case):
    check_one_block_update(case)


def _case(kind, n=8, nv=6, **changes):
    """A fixed case: n map rows and nv view rows of distinct descriptors,
    the cap unbound, every row matched correctly, every view row
    unmatched."""
    case = {
        "seed": 3, "kind": kind,
        "pool": [(w, w + 1) for w in range(1, 3 * (n + nv) + 2, 3)],
        "map_rows": list(range(n)), "view_rows": list(range(n, n + nv)),
        "inserted_at": [i % 3 for i in range(n)],
        "score": [float(i % 4) for i in range(n)],
        "obs": [np.linspace(-1, 1, n)], "m": 500, "failed": False,
        "outcomes": [C] * n, "matched": [False] * nv, "delta": 12.5,
        "add_fraction": 0.5, "exchange_fraction": 0.25, "pack_map": True,
        "pack_view": True, "use_share": True,
    }
    case.update(changes)
    return case


@pytest.mark.parametrize("case, corner", [
    (_case("score", m=5, failed=True), "failed"),
    (_case("fremen", m=5, failed=True), "failed"),
    (_case("fremen", m=5), "cap binds"),
    (_case("score", m=3, use_share=False), "cap binds"),
    (_case("summary", add_fraction=0.0, outcomes=[I, C] * 4), "insert 0"),
    (_case("aggressive", matched=[True] * 6, outcomes=[N, C] * 4),
     "no view row to insert"),
    (_case("static"), "none removed"),
    (_case("strict", pack_map=False, pack_view=False), "none removed"),
    (_case("summary", outcomes=[C] * 8, matched=[True, False] * 3),
     "none removed"),
    (_case("latest"), "all removed"),
    (_case("latest", pack_view=False, nv=0), "all removed"),
    (_case("aggressive", outcomes=[I, N] * 4, use_share=False),
     "all removed"),
    (_case("fremen", exchange_fraction=1.0, m=4), "all removed"),
    (_case("score", exchange_fraction=1.0, pack_map=False), "all removed"),
    (_case("aggressive", n=0, outcomes=[]), "empty map"),
])
def test_one_block_update_corners(case, corner):
    info = check_one_block_update(case)
    n = len(case["map_rows"])
    if corner == "failed":
        assert info is None
        return
    removed, count = info
    if corner == "cap binds":
        assert case["m"] < n and count > 0
    elif corner == "insert 0":
        assert count == 0 and removed > 0
    elif corner == "no view row to insert":
        assert count > 0 and all(case["matched"])
    elif corner == "none removed":
        assert removed == 0
    elif corner == "all removed":
        assert removed == n > 0
    else:
        assert corner == "empty map" and n == 0 and count == 0


def test_latest_shares_the_views_arrays():
    # a latest update keeps no row and takes the whole view: the new block
    # shares the view's descriptors, y, ids and bit rows, as it always has
    rng = np.random.default_rng(21)
    pool = np.array([(w, 2 * w + 1) for w in range(20)], dtype=np.uint64)
    feats = _block(pool, range(8), rng,
                   (np.zeros(8, dtype=np.int64), np.zeros(8), None))
    view = _block(pool, range(4, 16), rng, None)
    bits = pack_features(view)
    lm = LocalMap(0, 0.0, feats)
    reg = RegistrationResult(3.0, Pairs(*(np.zeros(0, dtype=t) for t in (
        np.int64, np.int64, np.float64, np.int64))),
                             np.full(8, C, dtype=np.int8), 8)
    update_map(lm, view, reg, StrategyConfig(kind="latest"), 0.0, 2)
    new = lm.features
    for a, b in ((new.words, view.words), (new._bits, bits), (new.y, view.y),
                 (new.ids, view.ids)):
        assert np.shares_memory(a, b)
    assert not np.shares_memory(new.x, view.x)
    assert new.x.tolist() == np.clip(view.x - 3.0, 0.0, 640.0).tolist()
    assert new.inserted_at.tolist() == [2] * 12 and not new.score.any()
