"""Reference waveform writers: the Fraction-based ``waveforms_json``,
``export_vcd`` and ``render_ascii`` as they were before the writers read
integer ticks.

Each reads every time of a waveform set as a Fraction and formats it,
or rescales it by the lcm of the denominators, one toggle at a time.
They are an independent oracle for the CLI's ``simulate`` output, which
is written straight from the simulator's ticks.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from fractions import Fraction
from math import lcm

from sigdelay.stepfn import format_time

_ASCII_WIDTH = 64
_ID_CHARS = [chr(c) for c in range(33, 127)]


def _ident(i: int) -> str:
    out = ""
    i += 1
    while i > 0:
        i, r = divmod(i - 1, len(_ID_CHARS))
        out = _ID_CHARS[r] + out
    return out


def render_ascii(w) -> str:
    names = list(w.signals)
    pad = max((len(n) for n in names), default=0)
    h = w.horizon if w.horizon > 0 else Fraction(1)
    dt = Fraction(h, _ASCII_WIDTH)
    lines = []
    for name in names:
        sig = w.signals[name]
        cells = []
        for k in range(_ASCII_WIDTH):
            lo, hi = k * dt, (k + 1) * dt
            j = bisect_left(sig.bps, hi)
            if j and sig.bps[j - 1] >= lo:
                cells.append("/" if sig.at[j - 1] == 1 else "\\")
            else:
                cells.append("^" if (sig.right[j - 1] if j else sig.leading) == 1 else "_")
        times = ", ".join(format_time(b) for b in sig.bps) or "none"
        lines.append(f"{name.ljust(pad)} {''.join(cells)}  switches: {times}")
    lines.append(f"{' ' * pad} 0{' ' * (_ASCII_WIDTH - len(str(h)) - 1)}{h}")
    return "\n".join(lines) + "\n"


def waveforms_json(w) -> str:
    nets = {
        name: {"initial": sig.leading,
               "toggles": [format_time(t) for t in sig.bps]}
        for name, sig in w.signals.items()
    }
    return json.dumps({"horizon": format_time(w.horizon), "nets": nets},
                      indent=2) + "\n"


def export_vcd(w) -> str:
    for name, sig in w.signals.items():
        if not sig.is_signal():
            raise ValueError(f"net {name!r} is not exportable to VCD")
    denoms = [b.denominator for sig in w.signals.values() for b in sig.bps]
    denoms.append(w.horizon.denominator)
    scale = lcm(*denoms)
    names = list(w.signals)
    ids = {name: _ident(i) for i, name in enumerate(names)}
    lines = [
        "$comment sigdelay scale lcm=%d horizon=%s $end" % (scale, w.horizon),
        "$timescale 1 s $end",
        "$scope module top $end",
    ]
    for name in names:
        lines.append(f"$var wire 1 {ids[name]} {name} $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")
    lines.append("#0")
    lines.append("$dumpvars")
    for name in names:
        lines.append(f"{w.signals[name].leading}{ids[name]}")
    lines.append("$end")
    events: dict[int, list[str]] = {}
    for name in names:
        sig = w.signals[name]
        for t, v in zip(sig.bps, sig.at):
            events.setdefault(t.numerator * (scale // t.denominator), []).append(
                f"{v}{ids[name]}")
    for stamp in sorted(events):
        lines.append(f"#{stamp}")
        lines.extend(events[stamp])
    return "\n".join(lines) + "\n"
