"""Architecture-search meta-controller.

A bidirectional tanh recurrent encoder reads the hidden-layer width sequence
(one recurrence, run over the widths and over their reverse); a shared sigmoid
head decides widening per layer and a categorical head picks identity-layer
insertion points (or stop). Policy-gradient updates are hand-derived through
both decision layers, both recurrent directions (one backprop through time),
and the embedding table. The sampler alone caps an episode: at most
MAX_WIDER_ACTIONS widenings and SearchConfig.max_deeper insertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .data import Dataset
from .netcore import Arch, DenseNet, _hits, _softmax
from .regularize import TrainingDiverged
from .transform import DeeperAction, WiderAction, action_to_line, apply_actions

PROB_FLOOR = 1e-6
MAX_WIDER_ACTIONS = 2  # widenings per episode; SearchConfig.max_deeper caps insertions
N_BUCKETS = 12  # embedding rows: log2 width buckets
BASELINE_DECAY = 0.95  # weight of the old reward moving average per update


@dataclass
class ControllerPolicy:
    emb: np.ndarray      # [N_BUCKETS, emb_dim]
    wx_f: np.ndarray     # [emb_dim, hidden]
    wh_f: np.ndarray     # [hidden, hidden]
    b_f: np.ndarray      # [hidden]
    wx_b: np.ndarray
    wh_b: np.ndarray
    b_b: np.ndarray
    w_wider: np.ndarray  # [2*hidden]
    b_wider: float
    w_deep: np.ndarray   # [2*hidden], per-position insertion score
    b_deep: float
    w_stop: np.ndarray   # [2*hidden], stop score on the mean state
    b_stop: float

    @property
    def hidden_size(self) -> int:
        return self.b_f.shape[0]

    def param_items(self) -> list[str]:
        return [f.name for f in fields(self)]


def init_policy(seed: int, hidden_size: int = 32, emb_dim: int = 16) -> ControllerPolicy:
    """Heads start at zero so the untrained policy is uniform."""
    rng = np.random.default_rng(seed)
    s = 0.1
    return ControllerPolicy(
        emb=rng.normal(0, s, (N_BUCKETS, emb_dim)),
        wx_f=rng.normal(0, s, (emb_dim, hidden_size)),
        wh_f=rng.normal(0, s, (hidden_size, hidden_size)),
        b_f=np.zeros(hidden_size),
        wx_b=rng.normal(0, s, (emb_dim, hidden_size)),
        wh_b=rng.normal(0, s, (hidden_size, hidden_size)),
        b_b=np.zeros(hidden_size),
        w_wider=np.zeros(2 * hidden_size), b_wider=0.0,
        w_deep=np.zeros(2 * hidden_size), b_deep=0.0,
        w_stop=np.zeros(2 * hidden_size), b_stop=0.0,
    )


def width_bucket(width: int, n_buckets: int) -> int:
    return min(int(np.log2(max(width, 1))), n_buckets - 1)


def _recur(xs: np.ndarray, wx: np.ndarray, wh: np.ndarray, b: np.ndarray) -> np.ndarray:
    """States hs[0..n] of hs[t + 1] = tanh(xs[t] @ wx + hs[t] @ wh + b), hs[0] = 0."""
    hs = np.zeros((xs.shape[0] + 1, b.shape[0]))
    for t in range(xs.shape[0]):
        hs[t + 1] = np.tanh(xs[t] @ wx + hs[t] @ wh + b)
    return hs


def _bptt(xs: np.ndarray, hs: np.ndarray, d_hs: np.ndarray, wx: np.ndarray,
          wh: np.ndarray, dx: np.ndarray, grads: list[np.ndarray]) -> None:
    """Backprop through time of hs = _recur(xs, wx, wh, b) given d_hs = d(loss)/d(hs[1:]):
    adds the gradients of wx, wh and b into the arrays `grads` and that of xs into dx."""
    g_wx, g_wh, g_b = grads
    carry = np.zeros(hs.shape[1])
    for t in range(xs.shape[0] - 1, -1, -1):
        dz = (d_hs[t] + carry) * (1.0 - hs[t + 1] ** 2)
        g_wx += np.outer(xs[t], dz)
        g_wh += np.outer(hs[t], dz)
        g_b += dz
        dx[t] += wx @ dz
        carry = wh @ dz


def encode(policy: ControllerPolicy, widths: tuple[int, ...]):
    """Per-position concatenated forward/backward hidden states, plus a cache
    for backprop (hb holds the backward states in reversed order)."""
    buckets = [width_bucket(w, policy.emb.shape[0]) for w in widths]
    xs = policy.emb[buckets]
    hf = _recur(xs, policy.wx_f, policy.wh_f, policy.b_f)
    hb = _recur(xs[::-1], policy.wx_b, policy.wh_b, policy.b_b)
    states = np.concatenate([hf[1:], hb[:0:-1]], axis=1)
    return states, (xs, hf, hb, buckets)


def _encode_backward(policy: ControllerPolicy, cache, d_states: np.ndarray, grads: dict):
    """Accumulate parameter gradients given d(loss)/d(states)."""
    xs, hf, hb, buckets = cache
    h = policy.hidden_size
    dx = np.zeros_like(xs)
    _bptt(xs, hf, d_states[:, :h], policy.wx_f, policy.wh_f, dx,
          [grads[k] for k in ("wx_f", "wh_f", "b_f")])
    _bptt(xs[::-1], hb, d_states[::-1, h:], policy.wx_b, policy.wh_b, dx[::-1],
          [grads[k] for k in ("wx_b", "wh_b", "b_b")])
    for t, b in enumerate(buckets):
        grads["emb"][b] += dx[t]


@dataclass
class Decision:
    kind: str              # "wider" or "deeper"
    widths: tuple[int, ...]  # architecture descriptor the decision saw
    position: int          # layer position (wider) or chosen option (deeper)
    choice: int            # sampled value: 0/1 for wider; option index for deeper


@dataclass
class Episode:
    decisions: list[Decision] = field(default_factory=list)
    actions: list[WiderAction | DeeperAction] = field(default_factory=list)
    a_val: float = float("nan")
    reward: float = 0.0


def raw_reward(a_val: float) -> float:
    """tan(a_val * pi/2), with a_val clamped to [0, 0.999]."""
    return float(np.tan(min(max(a_val, 0.0), 0.999) * np.pi / 2.0))


def reward_transform(a_val: float, baseline: float | None) -> tuple[float, float]:
    """raw_reward centered by an exponential moving average of the earlier raw
    rewards (None before the first); returns the reward and the new average."""
    raw = raw_reward(a_val)
    prev = raw if baseline is None else baseline
    return raw - prev, BASELINE_DECAY * prev + (1.0 - BASELINE_DECAY) * raw


@dataclass(frozen=True)
class SearchConfig:
    budget: int = 6  # children evaluated per search
    m_children: int = 3
    child_epochs: int = 2
    controller_lr: float = 0.05
    width_cap_factor: int = 4  # net2net's widening cap, times the initial width
    max_deeper: int = 3  # identity-layer insertions per episode


def _wider_prob(policy: ControllerPolicy, state: np.ndarray) -> float:
    z = np.clip(float(policy.w_wider @ state + policy.b_wider), -500, 500)
    p = 1.0 / (1.0 + np.exp(-z))
    return float(np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR))


def _deeper_probs(policy: ControllerPolicy, states: np.ndarray) -> np.ndarray:
    logits = np.concatenate([
        states @ policy.w_deep + policy.b_deep,
        [float(policy.w_stop @ states.mean(axis=0) + policy.b_stop)],
    ])
    return np.clip(_softmax(logits[None])[2][0], PROB_FLOOR, 1.0 - PROB_FLOOR)


def sample_episode(policy: ControllerPolicy, arch: Arch, seed: int,
                   cfg: SearchConfig = SearchConfig()) -> Episode:
    """Sample widen decisions per layer (a widened layer doubles, once), then
    insertion decisions until stop."""
    rng = np.random.default_rng(seed)
    ep = Episode()
    widths = list(arch.hidden_widths)

    states, _ = encode(policy, tuple(widths))
    n_wider = 0
    for i in range(len(widths)):
        if n_wider >= MAX_WIDER_ACTIONS:
            break
        p = _wider_prob(policy, states[i])
        a = int(rng.random() < p)
        ep.decisions.append(Decision("wider", tuple(arch.hidden_widths), i, a))
        if a:
            n_wider += 1
            new_w = 2 * widths[i]
            ep.actions.append(WiderAction(i, new_w))
            widths[i] = new_w

    for _ in range(cfg.max_deeper):
        desc = tuple(widths)
        states, _ = encode(policy, desc)
        probs = _deeper_probs(policy, states)
        k = int(rng.choice(len(probs), p=probs / probs.sum()))
        ep.decisions.append(Decision("deeper", desc, k, k))
        if k == len(desc):  # stop token
            break
        ep.actions.append(DeeperAction(k))
        widths.insert(k + 1, widths[k])
    return ep


def reinforce_update(policy: ControllerPolicy, episodes: list[Episode], lr: float) -> None:
    """Gradient ascent on (1/m) sum_i sum_s grad log P(a_s) * R_i, in place."""
    grads = {k: np.zeros(np.shape(getattr(policy, k))) for k in policy.param_items()}
    for ep in episodes:
        if ep.reward == 0.0:
            continue
        for d in ep.decisions:
            states, cache = encode(policy, d.widths)
            d_states = np.zeros_like(states)
            if d.kind == "wider":
                p = _wider_prob(policy, states[d.position])
                dz = (d.choice - p) * ep.reward
                grads["w_wider"] += dz * states[d.position]
                grads["b_wider"] += dz
                d_states[d.position] += dz * policy.w_wider
            else:
                probs = _deeper_probs(policy, states)
                dlogit = -probs * ep.reward
                dlogit[d.choice] += ep.reward
                n = states.shape[0]
                grads["w_deep"] += states.T @ dlogit[:n]
                grads["b_deep"] += dlogit[:n].sum()
                d_states += np.outer(dlogit[:n], policy.w_deep)
                grads["w_stop"] += dlogit[n] * states.mean(axis=0)
                grads["b_stop"] += dlogit[n]
                d_states += dlogit[n] * np.outer(np.ones(n) / n, policy.w_stop)
            _encode_backward(policy, cache, d_states, grads)
    m = max(len(episodes), 1)
    for k in policy.param_items():
        setattr(policy, k, getattr(policy, k) + lr * grads[k] / m)


@dataclass
class SearchResult:
    net: DenseNet
    actions: list[WiderAction | DeeperAction]
    ref: np.ndarray  # the child's reference vector (apply_actions)
    a_val: float
    log: list[dict]


# fit(net, ref, epochs, seed): train net, new from apply_actions with reference
# vector ref, on the task's CE, penalty and SGD settings; mutates and returns net.
Fit = Callable[[DenseNet, np.ndarray, int, int], DenseNet]


def search_child(prev_net: DenseNet, fit: Fit, val_sets: list[Dataset],
                 policy: ControllerPolicy, baseline: float | None, seed: int,
                 search_cfg: SearchConfig = SearchConfig()) -> tuple[SearchResult, float]:
    """Episode loop of the expansion search.

    Each child is created by the sampled morphisms, fine-tuned for
    `search_cfg.child_epochs` through `fit` (the task's own loss and SGD
    settings), and scored on the rows of every val_sets view, one view and
    512-row chunk at a time: its a_val is the hits pooled over the views
    divided by their total row count. Rewards update the policy in batches of
    m. Returns the best-scoring child seen, the first one seen when two pool
    equal hits, and the reward moving average (reward_transform).
    """
    budget = search_cfg.budget
    if budget < 1:
        raise ValueError("budget must be >= 1")
    n_val = sum(len(v) for v in val_sets)
    if n_val == 0:
        raise ValueError("empty validation set")

    best_hits, best = -1, None
    log: list[dict] = []
    for start in range(0, budget, search_cfg.m_children):
        episodes = []
        for i in range(start, min(start + search_cfg.m_children, budget)):
            ep_seed = seed + 1013 * i
            ep = sample_episode(policy, prev_net.arch, ep_seed, search_cfg)
            try:
                child, child_ref = apply_actions(prev_net, ep.actions, ep_seed + 1)
                fit(child, child_ref, search_cfg.child_epochs, ep_seed + 2)
                hits = sum(_hits(child, v.inputs, v.labels) for v in val_sets if len(v))
            except TrainingDiverged:
                # A diverged child is a legal search outcome, not a pipeline
                # failure; score it at the floor so the policy steers away,
                # and below any child that trained so it is never picked.
                hits = -1
            diverged = hits < 0
            ep.a_val = max(hits, 0) / n_val
            ep.reward, baseline = reward_transform(ep.a_val, baseline)
            episodes.append(ep)
            log.append({
                "seed": ep_seed,
                "actions": "; ".join(action_to_line(a) for a in ep.actions),
                "a_val": ep.a_val,
                "diverged": diverged,
                "raw_reward": raw_reward(ep.a_val),
                "shaped_reward": ep.reward,
            })
            if hits > best_hits:
                best_hits, best = hits, (child, ep.actions, child_ref)
        reinforce_update(policy, episodes, search_cfg.controller_lr)
    if best is None:
        raise TrainingDiverged("every sampled child diverged during the search")
    return SearchResult(*best, best_hits / n_val, log), baseline
