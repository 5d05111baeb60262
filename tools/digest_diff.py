"""Compare two outputs of tools/calibration_digest.py within a tolerance.

    python3 tools/digest_diff.py old.txt new.txt
    python3 tools/digest_diff.py --summary old.txt new.txt

Every line must match token for token, except the floats of a
calibration's transform and rms, its health mean distance, each monitor
event's mean distance and the extrinsic a monitor frame holds: those may
differ by at most TOLERANCE (absolute, meters or rotation-matrix entries).
Affinities, matches, confidences, refinement rounds and sets fitted,
what a frame raised, event kinds, statuses and everything else must be
identical. Prints the largest deviation of each kind of
float; exits 0 when the digests agree, 1 on any other difference (the
first few are printed), 2 on a usage error.

--summary counts what a change that moves results on purpose moved, per
workload: the affinity lines that are byte-identical, the calibration
lines whose matches changed (a raise counts as its own matches) and
those that changed otherwise, and the monitor lines whose event kinds or
status changed and those that changed otherwise. It exits 0 when the two
digests hold the same lines in the same order (workload, frame and line
kind), 1 when they do not, and 2 on a usage error.
"""
from __future__ import annotations

import math
import struct
import sys

TOLERANCE = 1e-12
KINDS = (
    "transform.rotation", "transform.translation", "rms", "health.mean_distance",
    "event.mean_distance", "held.rotation", "held.translation",
)


def _floats(text: str) -> list[float]:
    raw = bytes.fromhex(text)
    return list(struct.unpack(f"={len(raw) // 8}d", raw))


def _extrinsic(kind: str, a: str, b: str) -> list[tuple[str, float, float]]:
    """The 12 floats of two 'rotation:translation' hex tokens, paired."""
    (rot_a, _, tra_a), (rot_b, _, tra_b) = a.partition(":"), b.partition(":")
    return [
        *((f"{kind}.rotation", x, y) for x, y in zip(_floats(rot_a), _floats(rot_b), strict=True)),
        *((f"{kind}.translation", x, y) for x, y in zip(_floats(tra_a), _floats(tra_b), strict=True)),
    ]


def _tolerant(tokens: list[str]) -> dict[int, str]:
    """Positions of the tokens of a digest line that hold tolerant floats,
    and their kind: the token after 'transform', 'rms' and 'held', the
    second one after 'health', and each monitor event."""
    kinds = {"transform": "transform", "rms": "rms", "held": "held"}
    found = {}
    for k, token in enumerate(tokens[:-1]):
        if token in kinds:
            found[k + 1] = kinds[token]
        elif token == "health" and k + 2 < len(tokens):
            found[k + 2] = "health.mean_distance"
    if tokens and tokens[0] == "monitor":
        end = tokens.index("status") if "status" in tokens else len(tokens)
        found.update((k, "event") for k in range(2, end))
    return found


def _pairs(kind: str, a: str, b: str) -> list[tuple[str, float, float]]:
    """The floats two differing tolerant tokens hold, paired by kind.
    ValueError when the tokens differ in anything but those floats."""
    if kind in ("transform", "held"):
        return _extrinsic(kind, a, b)
    if kind == "event":  # kind,confidence,mean_distance,attempt
        fa, fb = a.split(","), b.split(",")
        if len(fa) != 4 or len(fb) != 4 or fa[:2] + fa[3:] != fb[:2] + fb[3:]:
            raise ValueError("event fields differ")
        return [("event.mean_distance", float(fa[2]), float(fb[2]))]
    return [(kind, float(a), float(b))]


def compare(old: list[str], new: list[str]) -> tuple[dict[str, float], list[str]]:
    """(largest deviation by kind, differences beyond the tolerance)."""
    worst = dict.fromkeys(KINDS, 0.0)
    problems = []
    if len(old) != len(new):
        problems.append(f"line counts differ: {len(old)} vs {len(new)}")
    for number, (a, b) in enumerate(zip(old, new), start=1):
        if a == b:
            continue
        ta, tb = a.split(), b.split()
        tolerant = _tolerant(ta)
        if len(ta) != len(tb) or tolerant != _tolerant(tb):
            problems.append(f"line {number}: differs")
            continue
        for k, (x, y) in enumerate(zip(ta, tb)):
            if x == y:
                continue
            try:
                pairs = _pairs(tolerant[k], x, y)
            except (KeyError, ValueError, struct.error):
                problems.append(f"line {number}: {x!r} vs {y!r}")
                continue
            for kind, u, v in pairs:
                deviation = abs(u - v) if u != v else 0.0
                if math.isnan(deviation):
                    deviation = math.inf
                worst[kind] = max(worst[kind], deviation)
                if not deviation <= TOLERANCE:
                    problems.append(f"line {number}: {kind} {u!r} vs {v!r}")
    return worst, problems


def _kind(tokens: list[str]) -> str:
    """A digest line's kind: affinity, calibration or monitor."""
    if tokens[0] == "monitor":
        return "monitor"
    return "affinity" if tokens[2] == "affinity" else "calibration"


def _outcome(tokens: list[str]) -> tuple:
    """What --summary compares beyond bytes: a calibration line's matches
    (or what it raised), a monitor line's event kinds and status."""
    if tokens[0] == "monitor":
        end = tokens.index("status")
        return tuple(event.split(",")[0] for event in tokens[2:end]), tokens[end + 1]
    return tuple(tokens[2 : tokens.index("transform")] if "transform" in tokens else tokens[2:])


def summarize(old: list[str], new: list[str]) -> tuple[list[str], list[str]]:
    """(count lines, problems): per workload and line kind, how many lines
    changed, and how; problems name lines the two digests do not share."""
    problems = []
    if len(old) != len(new):
        problems.append(f"line counts differ: {len(old)} vs {len(new)}")
    counts: dict[tuple[str, str], list[int]] = {}  # (kind, workload): [lines, changed, outcome changed]
    for number, (a, b) in enumerate(zip(old, new), start=1):
        ta, tb = a.split(), b.split()
        if len(ta) < 3 or len(tb) < 3 or ta[:2] != tb[:2] or _kind(ta) != _kind(tb):
            problems.append(f"line {number}: not the same frame and line kind")
            continue
        count = counts.setdefault((_kind(ta), ta[0]), [0, 0, 0])
        count[0] += 1
        if a != b:
            count[1] += 1
            count[2] += _outcome(ta) != _outcome(tb)
    lines = []
    for (kind, workload), (total, changed, moved) in counts.items():
        if kind == "affinity":
            lines.append(f"{workload} affinity lines byte-identical: {total - changed} of {total}")
        else:
            what = "matches" if kind == "calibration" else "event kinds or status"
            name = workload if kind == workload else f"{workload} {kind}"
            lines.append(f"{name} lines whose {what} changed: {moved} of {total}")
            lines.append(f"{name} lines changed otherwise: {changed - moved} of {total}")
    return lines, problems


def main(argv: list[str]) -> int:
    summary = argv[:1] == ["--summary"]
    if summary:
        argv = argv[1:]
    if len(argv) != 2:
        print("usage: digest_diff.py [--summary] OLD NEW", file=sys.stderr)
        return 2
    old, new = (open(path).read().splitlines() for path in argv)
    if summary:
        lines, problems = summarize(old, new)
        print("\n".join(lines + problems[:10]))
        return 1 if problems else 0
    worst, problems = compare(old, new)
    for kind in KINDS:
        print(f"{kind} max deviation {worst[kind]:.3g}")
    for problem in problems[:10]:
        print(problem)
    if problems:
        print(f"{len(problems)} differences beyond exact match or {TOLERANCE:g}")
        return 1
    print(f"digests agree (floats within {TOLERANCE:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
