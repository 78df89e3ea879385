#!/usr/bin/env python3
"""Validate an exported Chrome trace-event JSON span trace.

Checks:
  1. the file parses as JSON and has a non-empty traceEvents array;
  2. every synchronous span's interval nests within its parent's interval
     (spans exported with args.async are causally linked wire flights and
     one-way-post handlers that legitimately outlive their origin);
  3. every remote-invoke span has a net-flight descendant (the wire leg
     that carried the invocation);
  4. span balance: no span is exported still open (args.open means a
     finish is missing on some code path);
  5. async parentage: an async span naming a parent must name one that
     exists and opened first (it may close first — that is what async
     means; parent 0 is a genuinely top-level operation);
  6. flow arrows pair up: every "s" (flow start) event has exactly one
     matching "f" (flow finish) with the same id, and vice versa;
  7. counter ("C") events, when present, are well formed: numeric
     timestamp, a single numeric args value, and per-(pid, name) track
     timestamps strictly increase (the watch tick samples each series
     at most once per instant);
  8. instant ("i") events, when present, are well formed: a numeric
     ts >= 0, and args.span is 0 (no enclosing span) or the id of an
     exported span.

A second mode validates flight-recorder postmortems:

    check_trace.py --postmortem DUMP.json [VICTIM_NODE]

requires the typed failure header, a non-empty trailing trace window
that ends no later than the failure time, and (when VICTIM_NODE is
given) that every span belongs to the victim or is cluster-scoped.

Exit 0 on success, 1 on any violation.
"""

import json
import sys

# ts/dur are printed with microsecond %.3f precision, so a child's rounded
# endpoint can exceed its parent's by a few nanoseconds.
EPS_US = 0.01


def main(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    spans = {}
    flow_starts = {}
    flow_finishes = {}
    counters = {}
    counter_bad = 0
    instants = []
    for e in events:
        if e.get("ph") == "C":
            track = (e.get("pid"), e.get("name"))
            ts = e.get("ts")
            args = e.get("args", {})
            if not isinstance(ts, (int, float)):
                print(f"counter {track}: non-numeric ts {ts!r}", file=sys.stderr)
                counter_bad += 1
                continue
            if len(args) != 1 or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                print(
                    f"counter {track}: want one numeric args value, got {args!r}",
                    file=sys.stderr,
                )
                counter_bad += 1
                continue
            prev = counters.get(track)
            if prev is not None and ts <= prev:
                print(
                    f"counter {track}: ts {ts:.3f} not after previous "
                    f"{prev:.3f}",
                    file=sys.stderr,
                )
                counter_bad += 1
            counters[track] = ts
        elif e.get("ph") == "X":
            sid = e["args"]["span"]
            spans[sid] = {
                "id": sid,
                "parent": e["args"]["parent"],
                "async": e["args"].get("async", False),
                "open": e["args"].get("open", False),
                "t0": e["ts"],
                "t1": e["ts"] + e["dur"],
                "name": e["name"],
                "cat": e.get("cat", ""),
            }
        elif e.get("ph") == "i":
            instants.append(e)
        elif e.get("ph") == "s":
            flow_starts[e["id"]] = flow_starts.get(e["id"], 0) + 1
        elif e.get("ph") == "f":
            flow_finishes[e["id"]] = flow_finishes.get(e["id"], 0) + 1
    if not spans:
        print("no spans in trace", file=sys.stderr)
        return 1

    bad = 0
    children = {}
    for s in spans.values():
        children.setdefault(s["parent"], []).append(s["id"])
        if s["open"]:
            print(
                f"span {s['id']} ({s['name']}) opened at {s['t0']:.3f} "
                "and never closed",
                file=sys.stderr,
            )
            bad += 1
        if s["async"]:
            if s["parent"] != 0:
                p = spans.get(s["parent"])
                if p is None:
                    print(
                        f"async span {s['id']} ({s['name']}) names missing "
                        f"parent {s['parent']}",
                        file=sys.stderr,
                    )
                    bad += 1
                elif p["t0"] > s["t0"] + EPS_US:
                    print(
                        f"async span {s['id']} ({s['name']}) opened at "
                        f"{s['t0']:.3f} before its parent {p['id']} "
                        f"({p['name']}) opened at {p['t0']:.3f}",
                        file=sys.stderr,
                    )
                    bad += 1
            continue
        p = spans.get(s["parent"])
        if p is None:
            continue
        if s["t0"] < p["t0"] - EPS_US or s["t1"] > p["t1"] + EPS_US:
            print(
                f"span {s['id']} ({s['name']}) [{s['t0']:.3f},{s['t1']:.3f}] "
                f"escapes parent {p['id']} ({p['name']}) "
                f"[{p['t0']:.3f},{p['t1']:.3f}]",
                file=sys.stderr,
            )
            bad += 1

    for fid, n in sorted(flow_starts.items()):
        m = flow_finishes.get(fid, 0)
        if n != 1 or m != 1:
            print(
                f"flow arrow {fid}: {n} start(s), {m} finish(es) "
                "(want exactly one of each)",
                file=sys.stderr,
            )
            bad += 1
    for fid, m in sorted(flow_finishes.items()):
        if fid not in flow_starts:
            print(
                f"flow arrow {fid}: finish without a start", file=sys.stderr
            )
            bad += 1

    def has_net_descendant(sid):
        stack = list(children.get(sid, []))
        while stack:
            c = stack.pop()
            if spans[c]["cat"] == "net":
                return True
            stack.extend(children.get(c, []))
        return False

    remotes = [s for s in spans.values() if s["name"].startswith("invoke.remote")]
    for s in remotes:
        if not has_net_descendant(s["id"]):
            print(
                f"remote invoke span {s['id']} has no net-flight descendant",
                file=sys.stderr,
            )
            bad += 1

    for e in instants:
        ts, sid = e.get("ts"), e.get("args", {}).get("span")
        if not isinstance(ts, (int, float)) or ts < 0 or (
            sid != 0 and sid not in spans
        ):
            print(f"instant {e.get('name')}: bad ts {ts!r} or args.span "
                  f"{sid!r} (want 0 or an exported span)", file=sys.stderr)
            bad += 1

    bad += counter_bad
    print(
        f"checked {len(spans)} spans ({len(remotes)} remote invokes, "
        f"{len(flow_starts)} flow arrows, {len(counters)} counter tracks, "
        f"{len(instants)} instants): "
        + ("OK" if bad == 0 else f"{bad} violations")
    )
    return 1 if bad else 0


def check_postmortem(path, victim=None):
    with open(path) as f:
        doc = json.load(f)
    bad = 0
    pm = doc.get("postmortem")
    if not isinstance(pm, dict):
        print("missing postmortem header", file=sys.stderr)
        return 1
    for field, kind in (
        ("kind", str),
        ("node", int),
        ("time", (int, float)),
        ("detail", str),
        ("window_s", (int, float)),
    ):
        if not isinstance(pm.get(field), kind):
            print(f"postmortem header: bad {field}: {pm.get(field)!r}",
                  file=sys.stderr)
            bad += 1
    t_fail = pm.get("time", 0.0)
    window = pm.get("window_s", 0.0)
    trace = doc.get("trace", [])
    if not trace:
        print("postmortem has an empty trailing trace window", file=sys.stderr)
        bad += 1
    for r in trace:
        t = r.get("time", 0.0)
        if t > t_fail + 1e-9 or t < t_fail - window - 1e-9:
            print(
                f"trace record at {t:.6f} outside the trailing window "
                f"[{t_fail - window:.6f}, {t_fail:.6f}]",
                file=sys.stderr,
            )
            bad += 1
    spans = doc.get("spans", [])
    if victim is not None:
        for s in spans:
            if s.get("node") not in (victim, -1):
                print(
                    f"span {s.get('id')} belongs to node {s.get('node')}, "
                    f"not victim {victim}",
                    file=sys.stderr,
                )
                bad += 1
    print(
        f"checked postmortem {pm.get('kind')}@node{pm.get('node')}: "
        f"{len(trace)} trace records, {len(spans)} spans: "
        + ("OK" if bad == 0 else f"{bad} violations")
    )
    return 1 if bad else 0


if __name__ == "__main__":
    argv = sys.argv[1:]
    if argv and argv[0] == "--postmortem":
        victim = int(argv[2]) if len(argv) > 2 else None
        sys.exit(check_postmortem(argv[1], victim))
    sys.exit(main(argv[0] if argv else "trace.json"))
