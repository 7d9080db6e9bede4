"""Vectorized schedule-replay engine: one NumPy pass for a whole batch.

The schedule-replay fast path (:mod:`repro.machine.fastpath`) already
exploits the pipeline's data-independent timing: control is recorded once
and only the data path re-executes per trace.  This module takes the next
step the recorded schedule makes possible — since N traces of the same
program march in lockstep, the per-cycle data path can be evaluated for
the *whole batch at once*:

* the replayed program is first compiled (once per program, cached) into a
  :class:`_VectorPlan`: a symbolic sweep over the schedule resolves every
  latched value to either a compile-time constant (immediates, loop
  counters, addresses — constant-folded through the scalar ALU handlers),
  an ALU result row, or a load row;
* at run time the plan executes as a flat list of NumPy ops over
  ``[n_traces]`` operand vectors, with data memory held as one dense
  ``[n_traces, window_words]`` matrix;
* the energy post-pass materializes the latch/bus/functional-unit value
  streams as ``[n_cycles, n_traces]`` matrices and scores Hamming-distance
  events via vectorized ``value & ~prev`` + popcount, emitting per-cycle
  energy for every trace in one pass.

The accuracy contract is the same **bit identity** the fast engine claims:
every floating-point addition happens in the order the reference hook
sequence performs it (component order within a cycle via left-associated
elementwise adds, cycle order via ``np.cumsum`` — a sequential, not
pairwise, reduction), and the injected noise stream replays draw-for-draw.
``tests/machine/test_vector.py`` enforces this differentially against the
reference engine for every experiment workload.

Like the fast engine, correctness never depends on the data-independence
heuristic: every recorded branch/indirect-jump outcome is re-checked
against the batch (vectorized, after the data sweep — sound because replay
is unconditional and nothing is committed on failure) and a mismatch
raises :class:`~repro.machine.fastpath.ScheduleDivergence` for the caller
to re-run on a scalar engine.  Programs the vector model cannot express —
data-dependent addresses leaving the modeled memory window, computed store
addresses that could alias the marker port — raise
:class:`VectorUnsupported`, which the engine registry's fallback chain
turns into a transparent ``fast`` (then ``reference``) retry.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..energy.coupling import CoupledBusModel
from ..energy.models import BusModel, FunctionalUnitModel, LatchModel
from ..energy.tracker import COMPONENTS
from ..isa.instructions import AluOp
from ..isa.program import Program
from .exceptions import SimulationError
from .fastpath import (_ALU_FUNCS, _BRANCH_FUNCS, _MEM_LB, _MEM_LBU,
                       _MEM_LW, _MEM_SW, _WORD_MASK, ScheduleDivergence,
                       ScheduleFallback, ScheduleUnavailable, _BoundSchedule,
                       bound_schedule_for, mark_divergent, program_digest)
from .memory import Memory
from .pipeline import MARKER_ADDR
from .regfile import RegisterFile

_MASK32 = np.uint32(0xFFFF_FFFF)
#: Slack above/below the statically known data extent, so small pointer
#: arithmetic past an array stays inside the modeled window.
_WINDOW_MARGIN_WORDS = 64
#: Refuse to model absurdly scattered address ranges densely.
_MAX_WINDOW_WORDS = 1 << 22
#: Whole-batch working-set ceiling; larger batches fall back to scalar.
_MAX_BATCH_BYTES = 1 << 30
#: The tracker draws Gaussian noise in chunks of this size; replaying the
#: same chunking reproduces its stream draw-for-draw.
_NOISE_CHUNK = 4096
#: Rows per block when summing energy columns: bounds the summing
#: temporary instead of a second full ``[n_cycles, n_traces]`` matrix.
_TOTAL_BLOCK_ROWS = 1024


class VectorUnsupported(ScheduleUnavailable):
    """The vector engine cannot serve this program or batch (model limits,
    not divergence); callers fall back to the scalar engines."""


# ---------------------------------------------------------------------------
# Bit-twiddling primitives
# ---------------------------------------------------------------------------

if hasattr(np, "bitwise_count"):
    _popcount = np.bitwise_count
else:  # pragma: no cover - NumPy < 2.0 fallback
    def _popcount(values: np.ndarray) -> np.ndarray:
        """SWAR popcount for uint32/uint64 arrays."""
        if values.dtype == np.uint64:
            v = values.copy()
            v -= (v >> 1) & 0x5555555555555555
            v = (v & 0x3333333333333333) + ((v >> 2) & 0x3333333333333333)
            v = (v + (v >> 4)) & 0x0F0F0F0F0F0F0F0F
            return ((v * 0x0101010101010101) >> 56).astype(np.uint8)
        v = values.astype(np.uint32)
        v -= (v >> 1) & 0x55555555
        v = (v & 0x33333333) + ((v >> 2) & 0x33333333)
        v = (v + (v >> 4)) & 0x0F0F0F0F
        return ((v * 0x01010101) >> 24).astype(np.uint8)


def _spread64(v32: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.energy.coupling._spread_bits_32_to_64`."""
    v = v32.astype(np.uint64)
    v = (v | (v << 16)) & 0x0000FFFF0000FFFF
    v = (v | (v << 8)) & 0x00FF00FF00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0F
    v = (v | (v << 2)) & 0x3333333333333333
    v = (v | (v << 1)) & 0x5555555555555555
    return v


def _i32(x):
    """Signed reinterpretation of a uint32 vector or scalar operand."""
    if isinstance(x, np.ndarray):
        return x.view(np.int32)
    value = int(x)
    if value & 0x8000_0000:
        value -= 0x1_0000_0000
    return np.int32(value)


_SH31 = np.uint32(31)


def _sh(b):
    return np.bitwise_and(b, _SH31)


# Vector twins of fastpath._ALU_FUNCS; each writes a full [n] uint32 row.
# uint32 arithmetic wraps exactly like the scalar ``& _WORD_MASK``.

def _v_add(a, b, out):
    np.add(a, b, out=out)


def _v_sub(a, b, out):
    np.subtract(a, b, out=out)


def _v_and(a, b, out):
    np.bitwise_and(a, b, out=out)


def _v_or(a, b, out):
    np.bitwise_or(a, b, out=out)


def _v_xor(a, b, out):
    np.bitwise_xor(a, b, out=out)


def _v_nor(a, b, out):
    np.bitwise_or(a, b, out=out)
    np.invert(out, out=out)


def _v_slt(a, b, out):
    out[...] = np.less(_i32(a), _i32(b))


def _v_sltu(a, b, out):
    out[...] = np.less(a, b)


def _v_sll(a, b, out):
    np.left_shift(a, _sh(b), out=out)


def _v_srl(a, b, out):
    np.right_shift(a, _sh(b), out=out)


def _v_sra(a, b, out):
    out[...] = np.right_shift(_i32(a), _sh(b))


def _v_lui(a, b, out):
    np.left_shift(b, np.uint32(16), out=out)


def _v_pass_a(a, b, out):
    out[...] = a


_VALU = {
    AluOp.ADD.value: _v_add, AluOp.SUB.value: _v_sub,
    AluOp.AND.value: _v_and, AluOp.OR.value: _v_or,
    AluOp.XOR.value: _v_xor, AluOp.NOR.value: _v_nor,
    AluOp.SLT.value: _v_slt, AluOp.SLTU.value: _v_sltu,
    AluOp.SLL.value: _v_sll, AluOp.SRL.value: _v_srl,
    AluOp.SRA.value: _v_sra, AluOp.LUI.value: _v_lui,
    AluOp.PASS_A.value: _v_pass_a,
}

#: Branch-check kinds (indices into the vector predicate dispatch).
_BR_KINDS = {"beq": 0, "bne": 1, "blez": 2, "bgtz": 3, "bltz": 4, "bgez": 5}
_BR_JR = 6

# Symbol tags: a latched value is a constant, an ALU output row, or a
# loaded-word row.
_CONST, _OUT, _LOAD = 0, 1, 2
_ZERO = (_CONST, 0)

# Runtime op tags.
(_OP_ALU, _OP_LW_C, _OP_LW_V, _OP_LB_C, _OP_LB_V,
 _OP_SW_C, _OP_SW_V, _OP_SB_C, _OP_SB_V) = range(9)


# ---------------------------------------------------------------------------
# Plan compilation: symbolic sweep over the recorded schedule
# ---------------------------------------------------------------------------

class _Gather:
    """Materializer for one per-row symbol list -> ``[rows, n]`` uint32."""

    __slots__ = ("rows", "const_rows", "const_vals", "out_rows", "out_src",
                 "load_rows", "load_src")

    def __init__(self, syms: list[tuple[int, int]]):
        self.rows = len(syms)
        const_rows: list[int] = []
        const_vals: list[int] = []
        out_rows: list[int] = []
        out_src: list[int] = []
        load_rows: list[int] = []
        load_src: list[int] = []
        for row, (tag, value) in enumerate(syms):
            if tag == _CONST:
                const_rows.append(row)
                const_vals.append(value & _WORD_MASK)
            elif tag == _OUT:
                out_rows.append(row)
                out_src.append(value)
            else:
                load_rows.append(row)
                load_src.append(value)
        self.const_rows = np.asarray(const_rows, np.int64)
        self.const_vals = np.asarray(const_vals, np.uint32)
        self.out_rows = np.asarray(out_rows, np.int64)
        self.out_src = np.asarray(out_src, np.int64)
        self.load_rows = np.asarray(load_rows, np.int64)
        self.load_src = np.asarray(load_src, np.int64)

    def materialize(self, out: np.ndarray, loads: np.ndarray,
                    n: int) -> np.ndarray:
        dest = np.empty((self.rows, n), np.uint32)
        if self.const_rows.size:
            dest[self.const_rows] = self.const_vals[:, None]
        if self.out_rows.size:
            dest[self.out_rows] = out[self.out_src]
        if self.load_rows.size:
            dest[self.load_rows] = loads[self.load_src]
        return dest


class _VectorPlan:
    """A program's schedule, compiled for whole-batch vector replay."""

    __slots__ = (
        "cycles", "n_loads", "w0", "window_words", "data_rel", "data_image",
        "ops", "checks", "marker_syms", "const_store_rels",
        "out_fill_rows", "out_fill_vals",
        "rec_ibus_ev", "rec_rw", "rec_l0_ev", "rec_sec_idx", "rec_mem",
        "steps", "col_s1", "col_s2", "col_s3",
        "mem_cycles", "mem_sec", "bus_gather",
        "units", "st_gather", "na_gather", "nb_gather", "nst_gather",
        "wbv_gather", "final_regs", "bytes_per_trace",
    )


def _enc(sym: tuple[int, int]):
    """Pre-wrap an operand symbol for the runtime loop (consts become
    NumPy scalars so the elementwise ops never re-box them)."""
    tag, value = sym
    if tag == _CONST:
        return (_CONST, np.uint32(value & _WORD_MASK))
    return (tag, value)


def _compile_plan(program: Program, bound: _BoundSchedule) -> _VectorPlan:
    schedule = bound.schedule
    records = schedule.records
    steps = schedule.steps
    n_cycles = schedule.cycles
    if n_cycles == 0:
        raise VectorUnsupported("empty schedule")

    # Per-record structural fields (raw record layout; see fastpath).
    recs = []
    rec_ibus_ev, rec_rw, rec_l0_ev = [], [], []
    rec_sec_idx, rec_mem = [], []
    for record in records:
        (_wb_idx, wb_dest, wb_sec, _mem_idx, mem_kind, mem_sec,
         _ex_idx, alu_name, unit_i, ex_sec, a_sel, b_sel, st_sel,
         ex_link, ctl, _id_idx, dec_live, a_reg, a_const, b_reg, b_const,
         st_reg, reads, writes, _fetch_idx, _fetch_active, _fetch_iword,
         ibus_ev, _l0_idx, _l0_iword, l0_ev, _l1_idx, s1, s2, s3) = record
        recs.append((wb_dest if wb_dest > 0 else -1, mem_kind, mem_sec,
                     alu_name, unit_i, ex_sec, a_sel, b_sel, st_sel,
                     ex_link, ctl, dec_live, a_reg, a_const, b_reg, b_const,
                     st_reg, s1, s2, s3))
        rec_ibus_ev.append(ibus_ev)
        rec_rw.append(reads + writes)
        rec_l0_ev.append(l0_ev)
        rec_sec_idx.append((8 if wb_sec else 0) | (4 if s1 else 0)
                           | (2 if s2 else 0) | (1 if s3 else 0))
        rec_mem.append(bool(mem_kind))

    # ---- symbolic data-path sweep --------------------------------------
    regs_sym: list[tuple[int, int]] = [_ZERO] * 32
    wb_sym = memalu_sym = memstore_sym = _ZERO
    idexa_sym = idexb_sym = idexst_sym = _ZERO

    out_syms: list[tuple[int, int]] = []
    st_syms: list[tuple[int, int]] = []
    na_syms: list[tuple[int, int]] = []
    nb_syms: list[tuple[int, int]] = []
    nst_syms: list[tuple[int, int]] = []
    wbv_syms: list[tuple[int, int]] = []
    bus_syms: list[tuple[int, int]] = []
    mem_cycles: list[int] = []
    mem_secs: list[bool] = []
    unit_data: dict[int, list] = {1: [], 2: [], 3: []}
    raw_ops: list[tuple] = []
    checks: list[tuple] = []
    marker_syms: list[tuple] = []
    const_addrs: list[tuple[int, int]] = []
    n_loads = 0

    for c, slot in enumerate(steps):
        (wb_wr, mem_kind, mem_sec, alu_name, unit_i, ex_sec,
         a_sel, b_sel, st_sel, ex_link, ctl, dec_live,
         a_reg, a_const, b_reg, b_const, st_reg, s1, s2, s3) = recs[slot]
        # ---- WB ----
        if wb_wr >= 0:
            regs_sym[wb_wr] = wb_sym
        # ---- MEM ----
        new_wb = memalu_sym
        if mem_kind:
            addr_sym = memalu_sym
            if mem_kind == _MEM_LW or mem_kind == _MEM_LBU \
                    or mem_kind == _MEM_LB:
                raw_ops.append(("load", mem_kind, addr_sym, n_loads))
                if addr_sym[0] == _CONST:
                    const_addrs.append((addr_sym[1], mem_kind))
                new_wb = (_LOAD, n_loads)
                bus_syms.append(new_wb)
                n_loads += 1
            else:
                if addr_sym[0] == _CONST and addr_sym[1] == MARKER_ADDR:
                    marker_syms.append((c, memstore_sym))
                else:
                    raw_ops.append(("store", mem_kind, addr_sym,
                                    memstore_sym))
                    if addr_sym[0] == _CONST:
                        const_addrs.append((addr_sym[1], mem_kind))
                bus_syms.append(memstore_sym)
            mem_cycles.append(c)
            mem_secs.append(mem_sec)
        # ---- EX (forwarding pre-resolved) ----
        a_sym = idexa_sym if a_sel == 0 else (memalu_sym if a_sel == 1
                                              else wb_sym)
        b_sym = idexb_sym if b_sel == 0 else (memalu_sym if b_sel == 1
                                              else wb_sym)
        stv_sym = idexst_sym if st_sel == 0 else (memalu_sym if st_sel == 1
                                                  else wb_sym)
        if ex_link >= 0:
            out_sym = (_CONST, ex_link)
        elif alu_name is None:
            out_sym = _ZERO
        elif a_sym[0] == _CONST and b_sym[0] == _CONST:
            out_sym = (_CONST, _ALU_FUNCS[alu_name](a_sym[1], b_sym[1]))
        else:
            out_sym = (_OUT, c)
            raw_ops.append(("alu", c, alu_name, a_sym, b_sym))
        if ctl is not None:
            if ctl[0] == "b":
                _kind, op_name, expected = ctl
                if a_sym[0] == _CONST and b_sym[0] == _CONST:
                    if _BRANCH_FUNCS[op_name](a_sym[1], b_sym[1]) \
                            != expected:  # pragma: no cover - defensive
                        raise VectorUnsupported(
                            "constant branch disagrees with recording")
                else:
                    checks.append((c, _BR_KINDS[op_name], _enc(a_sym),
                                   _enc(b_sym), expected))
            else:
                target = ctl[1]
                if a_sym[0] == _CONST:
                    if a_sym[1] != target:  # pragma: no cover - defensive
                        raise VectorUnsupported(
                            "constant jump target disagrees with recording")
                else:
                    checks.append((c, _BR_JR, _enc(a_sym), None, target))
        if unit_i:
            unit_data[unit_i].append((c, ex_sec, a_sym, b_sym))
        # ---- ID ----
        if dec_live:
            next_a = regs_sym[a_reg] if a_reg >= 0 else (_CONST, a_const)
            next_b = regs_sym[b_reg] if b_reg >= 0 else (_CONST, b_const)
            next_st = regs_sym[st_reg] if st_reg >= 0 else _ZERO
        else:
            next_a = next_b = next_st = _ZERO
        out_syms.append(out_sym)
        st_syms.append(stv_sym)
        na_syms.append(next_a)
        nb_syms.append(next_b)
        nst_syms.append(next_st)
        wbv_syms.append(new_wb)
        # ---- state rotation ----
        wb_sym = new_wb
        memalu_sym = out_sym
        memstore_sym = stv_sym
        idexa_sym, idexb_sym, idexst_sym = next_a, next_b, next_st

    # ---- memory window -------------------------------------------------
    lo = program.data_base >> 2
    hi = lo + len(program.data)
    for addr, kind in const_addrs:
        if (kind == _MEM_LW or kind == _MEM_SW) and addr & 3:
            raise VectorUnsupported(
                f"constant unaligned word access at 0x{addr:08x}")
        word = addr >> 2
        lo = min(lo, word)
        hi = max(hi, word + 1)
    lo = max(0, lo - _WINDOW_MARGIN_WORDS)
    hi += _WINDOW_MARGIN_WORDS
    window_words = hi - lo
    if window_words > _MAX_WINDOW_WORDS:
        raise VectorUnsupported(
            f"modeled memory window too large ({window_words} words)")

    # ---- finalize runtime ops ------------------------------------------
    ops: list[tuple] = []
    const_store_rels: list[int] = []
    for raw in raw_ops:
        if raw[0] == "alu":
            _t, c, alu_name, a_sym, b_sym = raw
            ops.append((_OP_ALU, c, _VALU[alu_name], _enc(a_sym),
                        _enc(b_sym)))
        elif raw[0] == "load":
            _t, kind, addr_sym, k = raw
            if addr_sym[0] == _CONST:
                rel = (addr_sym[1] >> 2) - lo
                if kind == _MEM_LW:
                    ops.append((_OP_LW_C, rel, k))
                else:
                    shift = (addr_sym[1] & 3) * 8
                    ops.append((_OP_LB_C, rel, shift, kind == _MEM_LB, k))
            elif kind == _MEM_LW:
                ops.append((_OP_LW_V, _enc(addr_sym), k))
            else:
                ops.append((_OP_LB_V, _enc(addr_sym), kind == _MEM_LB, k))
        else:
            _t, kind, addr_sym, val_sym = raw
            if addr_sym[0] == _CONST:
                rel = (addr_sym[1] >> 2) - lo
                const_store_rels.append(rel)
                if kind == _MEM_SW:
                    ops.append((_OP_SW_C, rel, _enc(val_sym)))
                else:
                    shift = (addr_sym[1] & 3) * 8
                    ops.append((_OP_SB_C, rel, shift, _enc(val_sym)))
            elif kind == _MEM_SW:
                ops.append((_OP_SW_V, _enc(addr_sym), _enc(val_sym)))
            else:
                ops.append((_OP_SB_V, _enc(addr_sym), _enc(val_sym)))

    plan = _VectorPlan()
    plan.cycles = n_cycles
    plan.n_loads = n_loads
    plan.w0 = lo
    plan.window_words = window_words
    plan.data_rel = (program.data_base >> 2) - lo
    plan.data_image = np.asarray([w & _WORD_MASK for w in program.data],
                                 np.uint32)
    plan.ops = ops
    plan.checks = checks
    plan.marker_syms = [(c, _enc(sym)) for c, sym in marker_syms]
    plan.const_store_rels = const_store_rels
    # OUT rows not produced by an op hold schedule constants; filling them
    # in-place turns OUT into the materialized EX-result stream.
    fill_rows = [c for c, sym in enumerate(out_syms) if sym[0] == _CONST]
    plan.out_fill_rows = np.asarray(fill_rows, np.int64)
    plan.out_fill_vals = np.asarray(
        [out_syms[c][1] & _WORD_MASK for c in fill_rows], np.uint32)
    plan.rec_ibus_ev = np.asarray(rec_ibus_ev, np.int64)
    plan.rec_rw = np.asarray(rec_rw, np.int64)
    plan.rec_l0_ev = np.asarray(rec_l0_ev, np.int64)
    plan.rec_sec_idx = np.asarray(rec_sec_idx, np.int64)
    plan.rec_mem = np.asarray(rec_mem, bool)
    plan.steps = np.asarray(steps, np.int64)
    rec_s1 = np.asarray([r[17] for r in recs], bool)
    rec_s2 = np.asarray([r[18] for r in recs], bool)
    rec_s3 = np.asarray([r[19] for r in recs], bool)
    plan.col_s1 = rec_s1[plan.steps]
    plan.col_s2 = rec_s2[plan.steps]
    plan.col_s3 = rec_s3[plan.steps]
    plan.mem_cycles = np.asarray(mem_cycles, np.int64)
    plan.mem_sec = np.asarray(mem_secs, bool)
    plan.bus_gather = _Gather(bus_syms)
    plan.units = {}
    for unit, entries in unit_data.items():
        if not entries:
            continue
        plan.units[unit] = (
            np.asarray([e[0] for e in entries], np.int64),
            np.asarray([e[1] for e in entries], bool),
            _Gather([e[2] for e in entries]),
            _Gather([e[3] for e in entries]),
        )
    plan.st_gather = _Gather(st_syms)
    plan.na_gather = _Gather(na_syms)
    plan.nb_gather = _Gather(nb_syms)
    plan.nst_gather = _Gather(nst_syms)
    plan.wbv_gather = _Gather(wbv_syms)
    plan.final_regs = [_enc(sym) for sym in regs_sym]
    # uint32 state matrices (OUT/ST/NA/NB/NST/WBV + loads + window) plus
    # float64 energy matrices (latches, funits, dbus, total).
    plan.bytes_per_trace = (window_words * 4 + n_loads * 4
                            + n_cycles * (6 * 4 + 4 * 8))
    return plan


#: ``(program digest, operand_isolation) -> (bound schedule, plan)``.  The
#: bound schedule identity is re-checked on every lookup so a cleared or
#: re-recorded fastpath cache invalidates the plan too.
_PLANS: dict[tuple[str, bool], tuple[_BoundSchedule, _VectorPlan]] = {}


def plan_for(program: Program, bound: _BoundSchedule) -> _VectorPlan:
    key = (program_digest(program), bound.schedule.operand_isolation)
    entry = _PLANS.get(key)
    if entry is not None and entry[0] is bound:
        return entry[1]
    plan = _compile_plan(program, bound)
    _PLANS[key] = (bound, plan)
    return plan


def _clear_caches() -> None:
    """Test hook: forget all compiled vector plans."""
    _PLANS.clear()


# ---------------------------------------------------------------------------
# Batch execution
# ---------------------------------------------------------------------------

def _resolve(operand, out: np.ndarray, loads: np.ndarray):
    tag, value = operand
    if tag == _OUT:
        return out[value]
    if tag == _LOAD:
        return loads[value]
    return value


class _BatchRun:
    """Raw results of one vector batch execution."""

    __slots__ = ("n", "out", "loads", "memmat", "touched", "marker_values",
                 "energy")

    def markers_for(self, t: int) -> tuple[tuple[int, int], ...]:
        return tuple((c, int(v[t]) if isinstance(v, np.ndarray) else int(v))
                     for c, v in self.marker_values)


class _BatchEnergy:
    """Per-cycle, per-trace energy plus exact sequential totals (the
    ``fun``/``dbus``/``lat`` matrices only when components are kept)."""

    __slots__ = ("cycles", "e_clock", "total", "fun", "dbus", "lat",
                 "col_ibus", "col_regfile", "col_memport", "col_secure",
                 "totals_common", "fun_totals", "dbus_totals", "lat_totals")

    def totals_for(self, t: int) -> dict[str, float]:
        totals = dict(self.totals_common)
        totals["funits"] = float(self.fun_totals[t])
        totals["dbus"] = float(self.dbus_totals[t])
        totals["latches"] = float(self.lat_totals[t])
        totals["noise"] = 0.0
        return {name: totals[name] for name in COMPONENTS} \
            | {"noise": 0.0}

    def trace_for(self, t: int, counts: dict[str, int],
                  draws: Optional[np.ndarray]) -> tuple:
        """Trace ``t``'s energy vector, totals and event counts, with the
        noise ``draws`` (``None`` when noiseless) added in."""
        trace = self.total[:, t].copy()
        totals = self.totals_for(t)
        counts = dict(counts, noise=0)
        if draws is not None:
            trace += draws
            totals["noise"] = float(np.cumsum(draws)[-1])
            counts["noise"] = draws.size
        return trace, totals, counts

    def components_for(self, t: int) -> np.ndarray:
        comp = np.empty((self.cycles, len(COMPONENTS)))
        comp[:, 0] = self.e_clock
        comp[:, 1] = self.col_ibus
        comp[:, 2] = self.col_regfile
        comp[:, 3] = self.fun[:, t]
        comp[:, 4] = self.dbus[:, t]
        comp[:, 5] = self.col_memport
        comp[:, 6] = self.lat[:, t]
        comp[:, 7] = self.col_secure
        return comp


def _prev_chain(values: np.ndarray, secure: np.ndarray) -> np.ndarray:
    """Previous-state matrix for a latched value stream: row k holds the
    state *before* cycle k (zero initially; all-ones after a secure
    commit, mirroring the models' pre-charged resting state)."""
    prev = np.empty_like(values)
    prev[0] = 0
    if values.shape[0] > 1:
        prev[1:] = values[:-1]
        reset = np.nonzero(secure[:-1])[0] + 1
        if reset.size:
            prev[reset] = _MASK32
    return prev


def _execute(program: Program, plan: _VectorPlan, n: int,
             inputs_list: list[list[tuple[int, list[int]]]],
             operand_isolation: bool,
             want_state: bool = False) -> _BatchRun:
    """Run the plan for ``n`` traces; raises :class:`ScheduleDivergence`
    (after marking the program divergent) or :class:`VectorUnsupported`."""
    window = plan.window_words
    w0 = plan.w0
    memmat = np.zeros((n, window), np.uint32)
    if plan.data_image.size:
        memmat[:, plan.data_rel:plan.data_rel + plan.data_image.size] = \
            plan.data_image
    for t, pairs in enumerate(inputs_list):
        for addr, words in pairs:
            if addr & 3:
                raise VectorUnsupported(
                    f"unaligned input write at 0x{addr:08x}")
            rel = (addr >> 2) - w0
            if rel < 0 or rel + len(words) > window:
                raise VectorUnsupported(
                    "input symbol outside modeled memory window")
            memmat[t, rel:rel + len(words)] = np.asarray(
                [w & _WORD_MASK for w in words], np.uint32)

    out = np.empty((plan.cycles, n), np.uint32)
    loads = np.empty((plan.n_loads, n), np.uint32)
    touched: list[np.ndarray] = []
    rows = np.arange(n)
    u3 = np.uint32(3)
    u255 = np.uint32(0xFF)
    sign_fill = np.uint32(0xFFFF_FF00)

    def var_index(addr, word_aligned: bool, is_store: bool) -> np.ndarray:
        wi = (addr >> np.uint32(2)).astype(np.int64)
        wi -= w0
        bad = (wi < 0) | (wi >= window)
        if word_aligned:
            bad |= (addr & u3) != 0
        if is_store:
            bad |= addr == np.uint32(MARKER_ADDR)
        if bad.any():
            raise VectorUnsupported(
                "computed address outside modeled memory window")
        return wi

    for op in plan.ops:
        tag = op[0]
        if tag == _OP_ALU:
            _t, c, fn, a_op, b_op = op
            fn(_resolve(a_op, out, loads), _resolve(b_op, out, loads),
               out[c])
        elif tag == _OP_LW_C:
            loads[op[2]] = memmat[:, op[1]]
        elif tag == _OP_LW_V:
            wi = var_index(_resolve(op[1], out, loads), True, False)
            loads[op[2]] = memmat[rows, wi]
        elif tag == _OP_LB_C:
            _t, rel, shift, signed, k = op
            value = (memmat[:, rel] >> np.uint32(shift)) & u255
            if signed:
                value = np.where((value & np.uint32(0x80)) != 0,
                                 value | sign_fill, value)
            loads[k] = value
        elif tag == _OP_LB_V:
            _t, addr_op, signed, k = op
            addr = _resolve(addr_op, out, loads)
            wi = var_index(addr, False, False)
            shift = (addr & u3) << u3
            value = (memmat[rows, wi] >> shift) & u255
            if signed:
                value = np.where((value & np.uint32(0x80)) != 0,
                                 value | sign_fill, value)
            loads[k] = value
        elif tag == _OP_SW_C:
            memmat[:, op[1]] = _resolve(op[2], out, loads)
        elif tag == _OP_SW_V:
            wi = var_index(_resolve(op[1], out, loads), True, True)
            memmat[rows, wi] = _resolve(op[2], out, loads)
            if want_state:
                touched.append(wi)
        elif tag == _OP_SB_C:
            _t, rel, shift, val_op = op
            keep = np.uint32(~(0xFF << shift) & _WORD_MASK)
            value = _resolve(val_op, out, loads)
            memmat[:, rel] = (memmat[:, rel] & keep) \
                | ((value & u255) << np.uint32(shift))
        else:  # _OP_SB_V
            _t, addr_op, val_op = op
            addr = _resolve(addr_op, out, loads)
            wi = var_index(addr, False, True)
            shift = (addr & u3) << u3
            value = _resolve(val_op, out, loads)
            memmat[rows, wi] = \
                (memmat[rows, wi] & ~(u255 << shift)) \
                | ((value & u255) << shift)
            if want_state:
                touched.append(wi)

    if plan.out_fill_rows.size:
        out[plan.out_fill_rows] = plan.out_fill_vals[:, None]

    # ---- branch verification (post-hoc: replay is unconditional, and on
    # mismatch every result above is discarded) -------------------------
    for check in plan.checks:
        c, kind, a_op, b_op, expected = check
        a = _resolve(a_op, out, loads)
        if kind == _BR_JR:
            bad = a != np.uint32(expected)
        else:
            b = _resolve(b_op, out, loads)
            if kind == 0:
                taken = np.equal(a, b)
            elif kind == 1:
                taken = np.not_equal(a, b)
            elif kind == 2:
                taken = _i32(a) <= 0
            elif kind == 3:
                taken = _i32(a) > 0
            elif kind == 4:
                taken = _i32(a) < 0
            else:
                taken = _i32(a) >= 0
            bad = taken != expected
        if np.any(bad):
            mark_divergent(program, operand_isolation)
            raise ScheduleDivergence(c)

    run = _BatchRun()
    run.n = n
    run.out = out
    run.loads = loads
    run.memmat = memmat
    run.touched = touched
    run.marker_values = [(c, _resolve(operand, out, loads))
                         for c, operand in plan.marker_syms]
    return run


# ---------------------------------------------------------------------------
# Energy post-pass
# ---------------------------------------------------------------------------

def _transition_energy(values: np.ndarray, secure: np.ndarray):
    """Rising-bit counts (uint8) for a latched stream with secure resets."""
    prev = _prev_chain(values, secure)
    return _popcount(np.bitwise_and(values, np.invert(prev)))


def _dbus_energy(plan: _VectorPlan, params, out: np.ndarray,
                 loads: np.ndarray, n: int) -> np.ndarray:
    """Per-cycle data-bus energy ``[n_cycles, n_traces]``; the bus-value
    temporaries die with this frame, before the totals are summed."""
    if params.c_coupling > 0:
        dbus_model = CoupledBusModel(params.event_energy_data_bus,
                                     params.event_energy_coupling,
                                     params.width)
    else:
        dbus_model = BusModel(params.event_energy_data_bus, params.width)
    dbus = np.zeros((plan.cycles, n))
    if plan.mem_cycles.size:
        bus = plan.bus_gather.materialize(out, loads, n)
        sec_m = plan.mem_sec
        prev = _prev_chain(bus, sec_m)
        rising = np.bitwise_and(bus, np.invert(prev))
        coupling = getattr(dbus_model, "coupling_event_energy", 0.0)
        normal = _popcount(rising) * dbus_model.event_energy
        if coupling:
            falling = np.bitwise_and(np.invert(bus), prev)
            maskw = np.uint32((1 << (params.width - 1)) - 1)
            switching = rising | falling
            exactly_one = (switching ^ (switching >> np.uint32(1))) & maskw
            opposite = ((rising & (falling >> np.uint32(1)))
                        | (falling & (rising >> np.uint32(1)))) & maskw
            events = _popcount(exactly_one) + 2 * _popcount(opposite)
            normal = normal + events * coupling
            falling64 = _spread64(np.invert(bus)) \
                | (_spread64(bus) << np.uint64(1))
            mask2w = np.uint64((1 << (2 * params.width - 1)) - 1)
            sec_events = _popcount(
                (falling64 ^ (falling64 >> np.uint64(1))) & mask2w)
            secure_e = dbus_model.base_secure_energy \
                + (2 * sec_events) * coupling
        else:
            secure_base = dbus_model.base_secure_energy \
                if isinstance(dbus_model, CoupledBusModel) \
                else dbus_model.secure_energy
            secure_e = secure_base
        dbus[plan.mem_cycles] = np.where(sec_m[:, None], secure_e, normal)
    return dbus


def _energy_postpass(plan: _VectorPlan, params, run: _BatchRun,
                     keep_components: bool) -> _BatchEnergy:
    """Score the batch: per-cycle ``[n_cycles, n_traces]`` energy, with
    every float addition in the reference engine's order (see module
    docstring for why this is bit-identical)."""
    n = run.n
    out, loads = run.out, run.loads
    n_cycles = plan.cycles
    steps = plan.steps

    e_clock = params.e_clock_cycle
    e_port = params.e_regfile_port
    e_mem = params.e_memory_access
    e_latch = params.event_energy_latch
    ibus = BusModel(params.event_energy_instr_bus, params.width)
    unit_models = {
        1: FunctionalUnitModel(params.event_energy_alu,
                               1.5 * params.event_energy_alu, params.width),
        2: FunctionalUnitModel(params.event_energy_xor_static,
                               params.event_energy_xor, params.width),
        3: FunctionalUnitModel(params.event_energy_shift,
                               1.5 * params.event_energy_shift,
                               params.width),
    }
    latch_secure = {
        1: LatchModel(e_latch, 3, params.width).secure_energy,
        2: LatchModel(e_latch, 2, params.width).secure_energy,
        3: LatchModel(e_latch, 1, params.width).secure_energy,
    }
    # Same successive accumulation as the scalar fast path's sec_table.
    sec_table = []
    for sec_idx in range(16):
        value = 0.0
        if sec_idx & 8:
            value += params.e_dummy_load
        if sec_idx & 4:
            value += params.e_secure_clock
        if sec_idx & 2:
            value += params.e_secure_clock
        if sec_idx & 1:
            value += params.e_secure_clock
        sec_table.append(value)

    col_ibus = (plan.rec_ibus_ev * ibus.event_energy)[steps]
    col_regfile = (plan.rec_rw * e_port)[steps]
    col_memport = np.where(plan.rec_mem, e_mem, 0.0)[steps]
    col_secure = np.asarray(sec_table)[plan.rec_sec_idx][steps]
    col_l0 = (plan.rec_l0_ev * e_latch)[steps]

    # ---- pipeline latches (latch 0 + dual-rail latches 1..3) -----------
    lat = np.empty((n_cycles, n))
    lat[:] = col_l0[:, None]

    def rising(gather: _Gather, secure: np.ndarray) -> np.ndarray:
        # The gathered operand matrix dies here, once scored: concurrent
        # batches make these transients the memory peak.
        return _transition_energy(gather.materialize(out, loads, n), secure)

    s1, s2, s3 = plan.col_s1, plan.col_s2, plan.col_s3
    events = (rising(plan.na_gather, s1) + rising(plan.nb_gather, s1)
              + rising(plan.nst_gather, s1))
    lat += np.where(s1[:, None], latch_secure[1], events * e_latch)
    events = _transition_energy(out, s2) + rising(plan.st_gather, s2)
    lat += np.where(s2[:, None], latch_secure[2], events * e_latch)
    events = rising(plan.wbv_gather, s3)
    lat += np.where(s3[:, None], latch_secure[3], events * e_latch)

    # ---- functional units ----------------------------------------------
    fun = np.zeros((n_cycles, n))
    for unit, (cyc_u, sec_u, a_gather, b_gather) in plan.units.items():
        model = unit_models[unit]
        events = (rising(a_gather, sec_u) + rising(b_gather, sec_u)
                  + _transition_energy(out[cyc_u], sec_u))
        fun[cyc_u] = np.where(sec_u[:, None], model.secure_energy,
                              events * model.static_event_energy)
    del events

    # ---- data bus -------------------------------------------------------
    dbus = _dbus_energy(plan, params, out, loads, n)

    # ---- total, in the reference end_cycle's addition order -------------
    base = e_clock + col_ibus
    base = base + col_regfile
    total = base[:, None] + fun
    total += dbus
    total += col_memport[:, None]
    total += lat
    total += col_secure[:, None]

    energy = _BatchEnergy()
    energy.cycles = n_cycles
    energy.e_clock = e_clock
    energy.total = total
    energy.col_ibus = col_ibus
    energy.col_regfile = col_regfile
    energy.col_memport = col_memport
    energy.col_secure = col_secure
    # Sequential (cumsum, not pairwise-sum) totals: exact float parity
    # with the scalar running accumulators.
    energy.totals_common = {
        "clock": float(np.cumsum(np.full(n_cycles, e_clock))[-1]),
        "ibus": float(np.cumsum(col_ibus)[-1]),
        "regfile": float(np.cumsum(col_regfile)[-1]),
        "memport": float(np.cumsum(col_memport)[-1]),
        "secure": float(np.cumsum(col_secure)[-1]),
    }
    if keep_components:
        energy.fun, energy.dbus, energy.lat = fun, dbus, lat
    energy.fun_totals = _sequential_total(fun)
    energy.dbus_totals = _sequential_total(dbus)
    energy.lat_totals = _sequential_total(lat)
    return energy


def _sequential_total(x: np.ndarray) -> np.ndarray:
    """Column totals in row order, bit for bit ``np.cumsum(x, axis=0)[-1]``
    (the scalar engines' running sums, not a pairwise sum), built one row
    block at a time instead of as a second full matrix."""
    total = 0.0
    for start in range(0, x.shape[0], _TOTAL_BLOCK_ROWS):
        part = x[start:start + _TOTAL_BLOCK_ROWS].copy()
        part[0] += total
        total = np.cumsum(part, axis=0, out=part)[-1].copy()
    return total


def _noise_draws(rng, sigma: float, count: int) -> np.ndarray:
    """Replay the tracker's chunked draw sequence for ``count`` cycles."""
    parts = []
    drawn = 0
    while drawn < count:
        parts.append(rng.normal(0.0, sigma, _NOISE_CHUNK))
        drawn += _NOISE_CHUNK
    return np.concatenate(parts)[:count] if parts \
        else np.zeros(0)


# ---------------------------------------------------------------------------
# Whole-batch entry point (engine registry `batch` hook)
# ---------------------------------------------------------------------------

def run_job_batch(jobs, program: Program,
                  cache_hit: Optional[bool] = None) -> Optional[list]:
    """Execute a homogeneous batch of SimJobs in one vector pass.

    Returns submission-ordered JobResults, or ``None`` when the batch
    cannot be vector-served (no schedule, divergence, unsupported model,
    working set too large) — the caller then falls back to per-job
    execution, where the registry's fallback chain applies per trace.
    With the observability sink enabled, each trace's run metrics are
    published in submission order, exactly as the per-job path would.
    """
    from .. import obs
    from ..harness.engine import JobResult, job_inputs
    from ..harness.runner import publish_run_metrics

    job0 = jobs[0]
    n = len(jobs)
    start = time.perf_counter()
    try:
        bound = bound_schedule_for(program,
                                   operand_isolation=job0.operand_isolation,
                                   max_cycles=job0.max_cycles)
        plan = plan_for(program, bound)
    except ScheduleFallback:
        return None
    if plan.bytes_per_trace * n > _MAX_BATCH_BYTES:
        return None
    try:
        inputs_list = [[(program.address_of(symbol), list(words))
                        for symbol, words in job_inputs(job, program).items()]
                       for job in jobs]
    except KeyError:
        return None  # unknown symbol: the per-job path raises canonically
    try:
        run = _execute(program, plan, n, inputs_list,
                       job0.operand_isolation)
        energy = _energy_postpass(
            plan, job0.params, run,
            any(job.collect_components for job in jobs))
    except ScheduleFallback:
        # Divergence is already marked; the per-job retry will route the
        # whole batch through the scalar engines.
        return None
    schedule = bound.schedule
    sigma = job0.noise_sigma
    results = []
    for t, job in enumerate(jobs):
        draws = _noise_draws(np.random.default_rng(job.noise_seed), sigma,
                             plan.cycles) if sigma > 0 else None
        trace, totals, counts = energy.trace_for(t, schedule.counts, draws)
        components = energy.components_for(t) \
            if job.collect_components else None
        results.append(JobResult(
            label=job.label, cycles=plan.cycles, energy=trace,
            markers=run.markers_for(t), totals=totals,
            components=components, cache_hit=cache_hit,
            counts=counts, engine="vector"))
    wall = (time.perf_counter() - start) / n
    observing = obs.enabled()
    for result in results:
        result.wall_time_s = wall
        if observing:
            publish_run_metrics(schedule.stats, schedule.mix, result.totals,
                                result.counts, result.cycles)
    return results


# ---------------------------------------------------------------------------
# Single-run adapter (engine registry `factory` hook)
# ---------------------------------------------------------------------------

class _VectorPipeline:
    """Post-run :class:`~repro.machine.pipeline.Pipeline` surface for a
    vector-replayed trace (stats/markers/regs/counters, no stepping)."""

    def __init__(self, program: Program, schedule, collect_mix: bool):
        self.program = program
        self.regs = RegisterFile()
        self.markers: list[tuple[int, int]] = []
        self.pc = program.entry
        self.cycle = 0
        self.halted = False
        self.retired = 0
        self.stall_cycles = 0
        self.squashed_instructions = 0
        self.branches_executed = 0
        self.branches_taken = 0
        self.loads_executed = 0
        self.stores_executed = 0
        self.secure_retired = 0
        self._schedule = schedule
        self._collect_mix = collect_mix

    @property
    def stats(self) -> dict[str, int | float]:
        return {
            "cycles": self.cycle,
            "retired": self.retired,
            "cpi": self.cycle / max(1, self.retired),
            "stall_cycles": self.stall_cycles,
            "squashed_instructions": self.squashed_instructions,
            "branches_executed": self.branches_executed,
            "branches_taken": self.branches_taken,
            "loads_executed": self.loads_executed,
            "stores_executed": self.stores_executed,
            "secure_retired": self.secure_retired,
            "secure_fraction_dynamic":
                self.secure_retired / max(1, self.retired),
        }

    @property
    def opcode_mix(self) -> dict[tuple[str, bool], int]:
        return dict(self._schedule.mix) if self._collect_mix else {}

    def _finish(self) -> None:
        stats = self._schedule.stats
        self.cycle = self._schedule.cycles
        self.pc = self._schedule.final_pc
        self.halted = True
        self.retired = stats["retired"]
        self.stall_cycles = stats["stall_cycles"]
        self.squashed_instructions = stats["squashed_instructions"]
        self.branches_executed = stats["branches_executed"]
        self.branches_taken = stats["branches_taken"]
        self.loads_executed = stats["loads_executed"]
        self.stores_executed = stats["stores_executed"]
        self.secure_retired = stats["secure_retired"]


class VectorCPU:
    """CPU-surface adapter running one trace as a batch of one.

    Exists so ``--engine vector`` covers *every* run shape (the tier-1
    suite runs under ``REPRO_ENGINE=vector`` in CI), not just DPA batches;
    the harness runner drives it exactly like :class:`~repro.machine.cpu
    .CPU`.  Raises :class:`~repro.machine.fastpath.ScheduleFallback`
    flavors from the constructor or :meth:`run` for the registry's
    fallback chain to handle.
    """

    def __init__(self, program: Program, tracker=None,
                 operand_isolation: bool = True, collect_mix: bool = False,
                 max_cycles: int = 50_000_000):
        self.program = program
        self.memory = Memory()
        self._tracker = tracker
        self._operand_isolation = operand_isolation
        self._bound = bound_schedule_for(program,
                                         operand_isolation=operand_isolation,
                                         max_cycles=max_cycles)
        self._plan = plan_for(program, self._bound)
        self.pipeline = _VectorPipeline(program, self._bound.schedule,
                                        collect_mix)
        self._inputs: list[tuple[int, list[int]]] = []

    @property
    def regs(self):
        return self.pipeline.regs

    @property
    def cycles(self) -> int:
        return self.pipeline.cycle

    @property
    def retired(self) -> int:
        return self.pipeline.retired

    @property
    def cpi(self) -> float:
        return self.pipeline.cycle / max(1, self.pipeline.retired)

    def write_symbol_words(self, symbol: str, values: list[int],
                           offset: int = 0) -> None:
        """Buffer words for ``symbol + offset``; applied when :meth:`run`
        builds the batch memory image."""
        base = self.program.address_of(symbol) + offset
        self._inputs.append((base, list(values)))

    def read_symbol_words(self, symbol: str, count: int,
                          offset: int = 0) -> list[int]:
        base = self.program.address_of(symbol) + offset
        return self.memory.read_words(base, count)

    def run(self, max_cycles: int = 50_000_000) -> int:
        schedule = self._bound.schedule
        if schedule.cycles > max_cycles:
            raise ScheduleUnavailable(
                f"schedule needs {schedule.cycles} cycles "
                f"> max_cycles={max_cycles}")
        if self.pipeline.halted:
            raise SimulationError("VectorCPU.run is one-shot")
        plan = self._plan
        run = _execute(self.program, plan, 1, [self._inputs],
                       self._operand_isolation, want_state=True)
        tracker = self._tracker
        if tracker is not None:
            energy = _energy_postpass(plan, tracker.params, run,
                                      tracker.collect_components)
            draws = None
            if tracker.noise_sigma > 0:
                # Drain the tracker's own pre-drawn buffer + rng so the
                # stream matches the reference draw-for-draw.
                buffered = tracker._noise_buffer[tracker._noise_index:]
                draws = np.concatenate(
                    [buffered,
                     _noise_draws(tracker._noise_rng, tracker.noise_sigma,
                                  max(0, plan.cycles - buffered.size))]
                )[:plan.cycles]
            trace, totals, counts = energy.trace_for(0, schedule.counts,
                                                     draws)
            components = list(energy.components_for(0)) \
                if tracker.collect_components else []
            tracker.commit_fastpath(
                trace if tracker.keep_trace else [],
                components, totals, counts, plan.cycles)
        # ---- architectural end state ----
        self.pipeline.markers = list(run.markers_for(0))
        final = [int(_resolve(operand, run.out, run.loads)[0])
                 if isinstance(_resolve(operand, run.out, run.loads),
                               np.ndarray)
                 else int(_resolve(operand, run.out, run.loads))
                 for operand in plan.final_regs]
        self.pipeline.regs.load(final)
        rels = set(range(plan.data_rel,
                         plan.data_rel + plan.data_image.size))
        for addr, words in self._inputs:
            rel = (addr >> 2) - plan.w0
            rels.update(range(rel, rel + len(words)))
        rels.update(plan.const_store_rels)
        for wi in run.touched:
            rels.add(int(wi[0]))
        self.memory._words = {plan.w0 + rel: int(run.memmat[0, rel])
                              for rel in sorted(rels)}
        self.pipeline._finish()
        return self.pipeline.cycle
