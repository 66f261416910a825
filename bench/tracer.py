"""Span tracer that wraps grandam's public functions from outside the package.

``install`` rebinds each traced name in every loaded ``grandam`` module that
holds it, so calls from one layer into another (``amalgam`` calling
``grand.grand_norm``, ``cli`` calling ``iofmt.load_function``) pass through
the wrapper. A span is ``[name, start, end, parent, op]``: ``parent`` is the
index of the enclosing span (or -1) and ``op`` the operation id the harness
set when the span opened. Spans stay in memory until the run ends.
"""

import sys
import time

# The public functions behind the per-layer metrics, plus the ones between
# them (amalgam_norm, grand_sequence_norm, the cli.cmd_* handlers) so that
# each self time excludes the layer below. canonical_json is left out: it
# recurses through its own global name and would open a span per node.
TRACED = (
    "core.lp_norm",
    "grand.grand_norm", "grand.grand_sequence_norm",
    "amalgam.translate_window", "amalgam.control_function", "amalgam.amalgam_norm",
    "amalgam.validate_bupu", "amalgam.equivalence_report",
    "convolution.convolve", "convolution.submultiplicativity_check",
    "iofmt.load_function", "iofmt.render_report",
    "cli.main", "cli.cmd_norm", "cli.cmd_profile", "cli.cmd_amalgam",
    "cli.cmd_bupu_validate", "cli.cmd_conv_check", "cli.cmd_witness",
    "cli.cmd_equivalence",
)

SETUP_OP = -1


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = SETUP_OP
        self._open = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, names=TRACED):
        """Rebind each ``module.function`` in every grandam module holding it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "grandam" or key.startswith("grandam."))]
        for qual in names:
            mod_name, func = qual.split(".")
            home = sys.modules.get(f"grandam.{mod_name}")
            if home is None:  # grandam.cli is only loaded by the CLI launcher
                continue
            original = getattr(home, func)
            wrapper = self.wrap(qual, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def summarize(spans, op_ids):
    """Per-name totals over the spans of the given operations.

    Returns {name: (calls, total_seconds, self_seconds)}. Self time is the
    span's duration minus the time its direct children cover; the harness
    is single-threaded, so children never overlap.
    """
    ops = set(op_ids)
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, op in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out = {}
    for i, (name, t0, t1, parent, op) in enumerate(spans):
        if op not in ops:
            continue
        calls, total, self_t = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + (t1 - t0), self_t + (t1 - t0) - child_time[i])
    return out
