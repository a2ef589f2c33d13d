"""Architecture-search meta-controller.

A bidirectional tanh recurrent encoder reads the hidden-layer width sequence;
a shared sigmoid head decides widening per layer and a categorical head picks
identity-layer insertion points (or stop). Policy-gradient updates are
hand-derived through the heads, both recurrent directions, and the embedding
table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .netcore import Arch, DenseNet, evaluate
from .regularize import (Anchor, FisherDiag, PenaltyConfig, TrainingDiverged,
                         consolidation, train_task)
from .transform import (MAX_DEEPER_ACTIONS, MAX_WIDER_ACTIONS, DeeperAction, WiderAction,
                        action_to_line, apply_actions)

PROB_FLOOR = 1e-6
N_BUCKETS = 12  # embedding rows: log2 width buckets


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
        return ["emb", "wx_f", "wh_f", "b_f", "wx_b", "wh_b", "b_b",
                "w_wider", "b_wider", "w_deep", "b_deep", "w_stop", "b_stop"]


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


def encode(policy: ControllerPolicy, widths: tuple[int, ...]):
    """Per-position concatenated forward/backward hidden states, plus a cache
    for backprop."""
    n = len(widths)
    buckets = [width_bucket(w, policy.emb.shape[0]) for w in widths]
    xs = policy.emb[buckets]
    h = policy.hidden_size
    hf = np.zeros((n + 1, h))
    for t in range(n):
        hf[t + 1] = np.tanh(xs[t] @ policy.wx_f + hf[t] @ policy.wh_f + policy.b_f)
    hb = np.zeros((n + 1, h))
    for t in range(n - 1, -1, -1):
        hb[t] = np.tanh(xs[t] @ policy.wx_b + hb[t + 1] @ policy.wh_b + policy.b_b)
    states = np.concatenate([hf[1:], hb[:n]], axis=1)
    cache = {"xs": xs, "hf": hf, "hb": hb, "buckets": buckets}
    return states, cache


def _encode_backward(policy: ControllerPolicy, cache, d_states: np.ndarray, grads: dict):
    """Accumulate parameter gradients given d(loss)/d(states)."""
    h = policy.hidden_size
    n = d_states.shape[0]
    xs, hf, hb = cache["xs"], cache["hf"], cache["hb"]
    dhf, dhb = d_states[:, :h], d_states[:, h:]
    dx = np.zeros_like(xs)

    carry = np.zeros(h)
    for t in range(n - 1, -1, -1):
        dh = dhf[t] + carry
        dz = dh * (1.0 - hf[t + 1] ** 2)
        grads["wx_f"] += np.outer(xs[t], dz)
        grads["wh_f"] += np.outer(hf[t], dz)
        grads["b_f"] += dz
        dx[t] += policy.wx_f @ dz
        carry = policy.wh_f @ dz
    carry = np.zeros(h)
    for t in range(n):
        dh = dhb[t] + carry
        dz = dh * (1.0 - hb[t] ** 2)
        grads["wx_b"] += np.outer(xs[t], dz)
        grads["wh_b"] += np.outer(hb[t + 1], dz)
        grads["b_b"] += dz
        dx[t] += policy.wx_b @ dz
        carry = policy.wh_b @ dz
    for t, b in enumerate(cache["buckets"]):
        grads["emb"][b] += dx[t]


@dataclass
class Decision:
    kind: str              # "wider" or "deeper"
    widths: tuple[int, ...]  # architecture descriptor the decision saw
    position: int          # layer position (wider) or chosen option (deeper)
    choice: int            # sampled value: 0/1 for wider; option index for deeper
    logp: float


@dataclass
class Episode:
    decisions: list[Decision] = field(default_factory=list)
    actions: list[WiderAction | DeeperAction] = field(default_factory=list)
    a_val: float = float("nan")
    reward: float = 0.0

    @property
    def log_prob(self) -> float:
        return sum(d.logp for d in self.decisions)


@dataclass
class BaselineState:
    ema: float | None = None
    decay: float = 0.95


def raw_reward(a_val: float) -> float:
    """tan(a_val * pi/2), with a_val clamped to [0, 0.999]."""
    return float(np.tan(min(max(a_val, 0.0), 0.999) * np.pi / 2.0))


def reward_transform(a_val: float, baseline: BaselineState) -> tuple[float, BaselineState]:
    """raw_reward centered by an exponential moving average."""
    raw = raw_reward(a_val)
    prev = raw if baseline.ema is None else baseline.ema
    reward = raw - prev
    new_ema = baseline.decay * prev + (1.0 - baseline.decay) * raw
    return reward, BaselineState(new_ema, baseline.decay)


@dataclass(frozen=True)
class SearchConfig:
    m_children: int = 5
    child_epochs: int = 2
    batch_size: int = 256
    lr: float = 0.001
    momentum: float = 0.0
    controller_lr: float = 0.05
    width_cap_factor: int = 4
    max_deeper: int = MAX_DEEPER_ACTIONS


def _wider_prob(policy: ControllerPolicy, state: np.ndarray) -> float:
    z = np.clip(float(policy.w_wider @ state + policy.b_wider), -500, 500)
    p = 1.0 / (1.0 + np.exp(-z))
    return float(np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR))


def _deeper_probs(policy: ControllerPolicy, states: np.ndarray) -> np.ndarray:
    logits = np.concatenate([
        states @ policy.w_deep + policy.b_deep,
        [float(policy.w_stop @ states.mean(axis=0) + policy.b_stop)],
    ])
    logits -= logits.max()
    p = np.exp(logits)
    p /= p.sum()
    return np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)


def sample_episode(policy: ControllerPolicy, arch: Arch, seed: int,
                   cfg: SearchConfig = SearchConfig()) -> Episode:
    """Sample widen decisions per layer, then insertion decisions until stop;
    caps hold by construction."""
    rng = np.random.default_rng(seed)
    ep = Episode()
    widths = list(arch.hidden_widths)
    caps = [cfg.width_cap_factor * w for w in widths]

    states, _ = encode(policy, tuple(widths))
    n_wider = 0
    for i in range(len(widths)):
        if n_wider >= MAX_WIDER_ACTIONS:
            break
        p = _wider_prob(policy, states[i])
        a = int(rng.random() < p)
        ep.decisions.append(Decision("wider", tuple(arch.hidden_widths), i, a,
                                     float(np.log(p if a else 1.0 - p))))
        if a:
            n_wider += 1
            new_w = min(2 * widths[i], caps[i])
            ep.actions.append(WiderAction(i, new_w))
            widths[i] = new_w

    for _ in range(cfg.max_deeper):
        desc = tuple(widths)
        states, _ = encode(policy, desc)
        probs = _deeper_probs(policy, states)
        k = int(rng.choice(len(probs), p=probs / probs.sum()))
        ep.decisions.append(Decision("deeper", desc, k, k, float(np.log(probs[k]))))
        if k == len(desc):  # stop token
            break
        ep.actions.append(DeeperAction(k))
        widths.insert(k + 1, widths[k])
    return ep


def reinforce_update(policy: ControllerPolicy, episodes: list[Episode], lr: float) -> None:
    """Gradient ascent on (1/m) sum_i sum_s grad log P(a_s) * R_i, in place."""
    grads = {k: np.zeros_like(np.asarray(getattr(policy, k), dtype=float))
             for k in policy.param_items()}
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
        cur = getattr(policy, k)
        if np.isscalar(cur):
            setattr(policy, k, float(cur + lr * grads[k] / m))
        else:
            cur += lr * grads[k] / m


@dataclass
class SearchResult:
    net: DenseNet
    actions: list[WiderAction | DeeperAction]
    ref: np.ndarray  # the child's reference vector (apply_actions)
    a_val: float
    log: list[dict]


def search_child(prev_net: DenseNet, train_set: Dataset, val_sets: list[Dataset],
                 anchor: Anchor | None, fisher: FisherDiag | None, cfg: PenaltyConfig,
                 budget: int, policy: ControllerPolicy, baseline: BaselineState,
                 seed: int, search_cfg: SearchConfig = SearchConfig(),
                 ref: np.ndarray | None = None) -> tuple[SearchResult, BaselineState]:
    """Episode loop of the expansion search.

    Each child is created by the sampled morphisms, fine-tuned briefly with the
    masked consolidation loss, and scored on the validation data (union over
    val_sets); rewards update the policy in batches of m. `ref` is the
    reference vector of prev_net (identity when None). Returns the
    best-scoring child seen.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    val_inputs = np.vstack([v.inputs for v in val_sets])
    val_labels = np.concatenate([v.labels for v in val_sets])
    if val_inputs.shape[0] == 0:
        raise ValueError("empty validation set")

    best: SearchResult | None = None
    log: list[dict] = []
    done = 0
    while done < budget:
        batch_n = min(search_cfg.m_children, budget - done)
        episodes = []
        for j in range(batch_n):
            ep_seed = seed + 1013 * (done + j)
            ep = sample_episode(policy, prev_net.arch, ep_seed, search_cfg)
            diverged = False
            try:
                child, child_ref, _ = apply_actions(prev_net.copy(), ep.actions,
                                                    ep_seed + 1, ref)
                objective = consolidation(anchor, fisher, cfg, child_ref)
                train_task(child, train_set, objective, search_cfg.child_epochs,
                           search_cfg.batch_size, search_cfg.lr, ep_seed + 2,
                           search_cfg.momentum)
                ep.a_val = evaluate(child, val_inputs, val_labels)
            except TrainingDiverged:
                # A diverged child is a legal search outcome, not a pipeline
                # failure; score it at the floor so the policy steers away.
                diverged = True
                ep.a_val = 0.0
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
            if not diverged and (best is None or ep.a_val > best.a_val):
                best = SearchResult(child, ep.actions, child_ref, ep.a_val, log)
        reinforce_update(policy, episodes, search_cfg.controller_lr)
        done += batch_n
    if best is None:
        raise TrainingDiverged("every sampled child diverged during the search")
    return best, baseline

