#include "verify/checker.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <optional>
#include <unordered_map>

#include "util/gang.hpp"
#include "util/require.hpp"
#include "util/small_vec.hpp"
#include "util/text.hpp"
#include "verify/zone.hpp"

namespace ptecps::verify {

// -- StateSketch ------------------------------------------------------------

void StateSketch::add(std::uint64_t h1, std::uint64_t h2) {
  // Two bits per key (Bloom k=2) over 4096 positions; the two hash
  // halves are independently mixed already (FNV-1a / splitmix64).
  constexpr std::uint64_t kBitsTotal = kWords * 64;
  const std::uint64_t b1 = h1 % kBitsTotal;
  const std::uint64_t b2 = h2 % kBitsTotal;
  bits[b1 / 64] |= 1ULL << (b1 % 64);
  bits[b2 / 64] |= 1ULL << (b2 % 64);
  ++distinct;
}

std::size_t StateSketch::popcount() const {
  std::size_t count = 0;
  for (std::uint64_t w : bits) count += static_cast<std::size_t>(std::popcount(w));
  return count;
}

std::size_t StateSketch::merge(const StateSketch& other) {
  std::size_t fresh = 0;
  for (std::size_t i = 0; i < kWords; ++i) {
    fresh += static_cast<std::size_t>(std::popcount(other.bits[i] & ~bits[i]));
    bits[i] |= other.bits[i];
  }
  return fresh;
}

std::uint64_t StateSketch::signature() const {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ distinct;
  for (std::uint64_t w : bits) {
    h ^= w;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string StateSketch::bits_hex() const {
  std::size_t last = kWords;
  while (last > 0 && bits[last - 1] == 0) --last;
  std::string out;
  out.reserve(last * 16);
  static constexpr char kHex[] = "0123456789abcdef";
  for (std::size_t i = 0; i < last; ++i)
    for (std::size_t nib = 16; nib-- > 0;)
      out.push_back(kHex[(bits[i] >> (nib * 4)) & 0xF]);
  return out;
}

bool StateSketch::set_bits_hex(std::string_view hex) {
  if (hex.size() % 16 != 0 || hex.size() > kWords * 16) return false;
  std::array<std::uint64_t, kWords> parsed{};
  for (std::size_t i = 0; i < hex.size(); ++i) {
    const char c = hex[i];
    std::uint64_t v = 0;
    if (c >= '0' && c <= '9') {
      v = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    parsed[i / 16] |= v << ((15 - i % 16) * 4);
  }
  bits = parsed;
  return true;
}

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

// -- discrete state ---------------------------------------------------------
//
// One 64-bit word per in-flight message: bit 63 = active, bits 32..62 =
// destination automaton, low 32 = model-interned label (0 = empty slot).

inline std::uint64_t make_slot(hybrid::LabelId label, std::size_t dst) {
  return (1ULL << 63) | (static_cast<std::uint64_t>(dst) << 32) | label;
}
inline bool slot_active(std::uint64_t s) { return (s >> 63) != 0; }
inline hybrid::LabelId slot_label(std::uint64_t s) {
  return static_cast<hybrid::LabelId>(s & 0xFFFFFFFFu);
}
inline std::size_t slot_dst(std::uint64_t s) {
  return static_cast<std::size_t>((s >> 32) & 0x7FFFFFFFu);
}

/// 128-bit discrete-state fingerprint: two independently mixed 64-bit
/// hashes.  The passed/waiting store keys on this instead of a
/// materialized key vector — no per-enqueue heap allocation, and a
/// collision needs both halves to agree (~2^-128 per pair).
struct DKey {
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 0;
  bool operator==(const DKey&) const = default;
};
struct DKeyHash {
  std::size_t operator()(const DKey& k) const { return static_cast<std::size_t>(k.h1); }
};

/// Discrete half of a search state.
struct DState {
  util::SmallVec<std::uint32_t, 8> loc;    // per automaton
  util::SmallVec<double, 8> offsets;       // per deadline var: current now-offset
  util::SmallVec<std::uint64_t, 8> slots;  // in-flight messages (packed)
  std::uint32_t risky = 0;                 // bit e-1: entity e currently risky
  std::uint32_t ever_exited = 0;           // bit e-1: has a recorded risky exit
  util::SmallVec<std::uint8_t, 8> input_val;  // per input var: value index
  std::uint32_t losses = 0;
  std::uint32_t injections = 0;
  std::uint32_t input_changes = 0;

  DKey key() const {
    std::uint64_t h1 = 0xcbf29ce484222325ULL;
    std::uint64_t h2 = 0x9e3779b97f4a7c15ULL;
    auto mix = [&h1, &h2](std::uint64_t v) {
      h1 ^= v;
      h1 *= 0x100000001b3ULL;  // FNV-1a
      h2 += v + 0x9e3779b97f4a7c15ULL;  // splitmix64 round
      h2 ^= h2 >> 30;
      h2 *= 0xbf58476d1ce4e5b9ULL;
      h2 ^= h2 >> 27;
    };
    for (std::uint32_t l : loc) mix(l);
    for (double o : offsets) {
      std::uint64_t bits;
      std::memcpy(&bits, &o, sizeof bits);
      mix(bits);
    }
    for (std::uint64_t s : slots) mix(s);
    mix(risky | (static_cast<std::uint64_t>(ever_exited) << 32));
    for (std::uint8_t v : input_val) mix(v);
    mix((static_cast<std::uint64_t>(losses) << 40) |
        (static_cast<std::uint64_t>(input_changes) << 20) | injections);
    return DKey{h1, h2};
  }
};

/// One zone operation applied at a step's instant, recorded so the
/// counterexample concretizer can re-execute the abstract path exactly
/// (without extrapolation) and invert it.
struct Op {
  enum class Kind : std::uint8_t { kConstrain, kReset };
  Kind kind = Kind::kConstrain;
  std::uint8_t i = 0;
  std::uint8_t j = 0;
  PackedBound b = 0;

  static Op constrain(std::size_t i, std::size_t j, PackedBound b) {
    return Op{Kind::kConstrain, static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(j),
              b};
  }
  static Op reset(std::size_t clock) {
    return Op{Kind::kReset, static_cast<std::uint8_t>(clock), 0, 0};
  }
};

/// Narrative event recorded during symbolic execution, rendered to text
/// by the concretizer; its send events are also the script's wireless
/// emissions.
struct TraceRec {
  enum class Kind : std::uint8_t { kFire, kSend, kLost, kSet };
  Kind kind = Kind::kFire;
  std::uint32_t a = 0;  // kFire: automaton; kSend/kLost: label; kSet: toggle index
  std::uint32_t b = 0;  // kFire: src location; kSend: message slot
  std::uint32_t c = 0;  // kFire: dst location; kSend/kLost: dst automaton

  static TraceRec fire(std::size_t automaton, std::size_t src, std::size_t dst) {
    return TraceRec{Kind::kFire, static_cast<std::uint32_t>(automaton),
                    static_cast<std::uint32_t>(src), static_cast<std::uint32_t>(dst)};
  }
  static TraceRec send(hybrid::LabelId label, bool lost, std::size_t slot, std::size_t dst) {
    return TraceRec{lost ? Kind::kLost : Kind::kSend, label, static_cast<std::uint32_t>(slot),
                    static_cast<std::uint32_t>(dst)};
  }
  static TraceRec set(std::size_t toggle) {
    return TraceRec{Kind::kSet, static_cast<std::uint32_t>(toggle), 0, 0};
  }
};

/// The header of the step that produced a successor: what the
/// concretizer's script needs besides the step's record.
struct Step {
  enum class Kind : std::uint8_t {
    kInit,
    kTimed,
    kCondition,
    kDeliver,
    kInject,
    kToggle,
    kViolation
  };
  Kind kind = Kind::kInit;
  bool consumed = false;  // deliver / inject: did an edge fire?
  std::uint32_t automaton = 0;
  std::uint32_t slot = 0;  // deliver: message slot; toggle: toggle index
  hybrid::LabelId root = hybrid::kNoLabel;  // deliver / inject event root
};

/// A step's zone ops and narrative.  Only the concretizer's re-derivation
/// of a counterexample path records them: the search reads neither.
struct StepRecord {
  std::vector<Op> ops;          // invariants + guards + resets, in order
  std::vector<TraceRec> trace;  // narrative, in note order
};

struct Outcome {
  DState d;
  Zone z = Zone(0);  // exact (extrapolation happens at emit)
  Step step;
  std::optional<StepRecord> rec;  // only in a recording expander
};

struct Node;

/// A successor in its producer's per-target-shard buffer, built there in
/// place by emit and read there in place by absorb.
struct Pending {
  Outcome o;  // exact zone, POR frees applied
  DKey key;
  Zone::SigPair raw;  // o.z's signatures (subsumption store only)
  const Node* parent = nullptr;
  std::uint64_t parent_rank = 0;
  std::uint32_t ordinal = 0;

  Pending(Outcome&& o_, DKey key_, const Node* parent_, std::uint64_t parent_rank_,
          std::uint32_t ordinal_)
      : o(std::move(o_)),
        key(key_),
        parent(parent_),
        parent_rank(parent_rank_),
        ordinal(ordinal_) {}
};

/// One stored search state.  `prank`/`ordinal` form the canonical
/// successor key (parent's global rank, branch ordinal within the
/// parent's deterministic expansion) that orders every store mutation —
/// the whole reason results are bit-identical across thread counts.  A
/// node keeps no record of its incoming step: concretize re-derives a
/// path's steps from the root by replaying the ordinals.
struct Node {
  DState d;
  Zone z;  // settled: exact, or extrapolated by the exact-equality store
  const Node* parent = nullptr;
  std::uint64_t prank = 0;
  std::uint64_t rank = 0;  // global canonical rank within its round
  std::uint32_t ordinal = 0;
  bool stale = false;  // evicted by a subsuming zone before expansion

  explicit Node(Pending&& p)
      : d(std::move(p.o.d)),
        z(std::move(p.o.z)),
        parent(p.parent),
        prank(p.parent_rank),
        ordinal(p.ordinal) {}
};

/// Pointer-stable node storage: nodes are built in place in chunks that
/// never reallocate (parents and antichain entries point at them), so
/// storing a node costs no allocation of its own.  Chunks double from 64
/// to 4096 nodes, so a small proof reserves little.
class NodeArena {
 public:
  Node* emplace(Pending&& p) {
    if (chunks_.empty() || chunks_.back().size() == chunks_.back().capacity()) {
      chunks_.emplace_back();
      chunks_.back().reserve(std::clamp<std::size_t>(size_, 64, 4096));
    }
    ++size_;
    return &chunks_.back().emplace_back(std::move(p));
  }
  std::size_t size() const { return size_; }

 private:
  std::vector<std::vector<Node>> chunks_;
  std::size_t size_ = 0;
};

/// Thrown when a violation is reachable; unwinds one node's expansion.
struct FoundViolation {
  core::PteViolationKind kind;
  std::size_t entity = 0;
  std::size_t other = 0;
  std::string description;
  Step step;                      // the violating step
  std::optional<StepRecord> rec;  // its record (ops include the check)
};

struct RoundViolation {
  FoundViolation v;
  const Node* parent = nullptr;  // node the violating step starts from
  std::uint64_t rank = 0;        // parent's rank — canonical tie-break
};

/// A pending successor's canonical key and where it sits: absorb sorts
/// these, not the (fat) pendings, and reads each pending in place.
struct PendingRef {
  std::uint64_t parent_rank = 0;
  std::uint32_t ordinal = 0;
  std::uint32_t producer = 0;  // expander index
  std::uint32_t index = 0;     // into that expander's buffer for this shard

  bool operator<(const PendingRef& o) const {
    if (parent_rank != o.parent_rank) return parent_rank < o.parent_rank;
    return ordinal < o.ordinal;
  }
};

// -- symbolic expansion -----------------------------------------------------
// One Expander per worker: re-executes the engine's instant semantics on
// (discrete state, zone) pairs and emits successors into per-target-shard
// buffers.  No shared mutable state — violations unwind by exception and
// are recorded by the expand phase.  A recording expander (the
// concretizer's) also records each step's zone ops, sends and narrative.
class Expander {
 public:
  Expander(const CompiledModel& model, const VerifyOptions& options, std::size_t shards,
           bool record = false)
      : m_(model), opt_(options), shards_(shards), record_(record), out_(shards) {}

  /// Per-target-shard successor buffers (consumed by the absorb phase).
  std::vector<std::vector<Pending>>& out() { return out_; }
  std::uint64_t transitions() const { return transitions_; }

  /// Expand `n`: every successor of its settled state, in deterministic
  /// order.  A null `n` seeds the search: Engine::init() mirrored
  /// symbolically.  Throws FoundViolation when a violating step is
  /// reachable.
  void expand(const Node* n) {
    parent_ = n;
    parent_rank_ = n ? n->rank : 0;
    ordinal_ = 0;
    if (n)
      process(*n);
    else
      build_initial();
  }

 private:
  // -- emit (the old enqueue, minus the store half) -------------------------
  // Extrapolation happens on the consumer side, and only for zones that
  // survive the subsumption drop — dropping is sound on the exact zone
  // (it is tighter than its extrapolation, so it catches strictly more).
  // The pending is built in place in the target shard's buffer, and the
  // drop test's signatures are taken while its matrix is still in cache.
  void emit(Outcome&& o) {
    if (o.z.is_empty()) return;
    if (opt_.por) apply_por_frees(o);
    ++transitions_;
    const DKey key = o.d.key();
    Pending& p =
        out_[key.h1 % shards_].emplace_back(std::move(o), key, parent_, parent_rank_, ordinal_++);
    if (opt_.subsumption) p.raw = p.o.z.signatures();
  }

  /// Activity-based clock relaxation — the exact half of the partial-
  /// order reduction.  Free every clock the compile-time analysis proves
  /// unread before its next reset in this discrete state: dead dwell
  /// clocks, dead deadline ages, non-risky entities' risky clocks,
  /// pre-first-exit safe clocks (safe(1) is never read at all), and
  /// inactive message ages.  free() keeps the DBM canonical and leaves
  /// the projection onto every other clock exactly unchanged, so every
  /// guard, invariant, and PTE-rule read — all provably on non-freed
  /// clocks — sees the same zone, and verdicts and counterexample
  /// concretization are exact.  Interleavings that differ only in dead-
  /// clock ages now produce identical zones and collapse in the store.
  /// A free drops the clock's row and column, so the stored matrix spans
  /// the live clocks only.
  void apply_por_frees(Outcome& o) {
    const CompiledModel::PorInfo& por = m_.por;
    std::size_t freed = 0;
    const auto free_dead = [&](std::size_t clock) {
      o.z.free(clock);
      ++freed;
    };
    for (std::size_t a = 0; a < m_.automata.size(); ++a)
      if (por.dwell_free[a][o.d.loc[a]]) free_dead(m_.clocks.dwell(a));
    for (std::size_t d = 0; d < m_.deadlines.size(); ++d) {
      const std::size_t owner = m_.deadlines[d].automaton;
      if (!por.deadline_live[d][o.d.loc[owner]]) free_dead(m_.clocks.deadline(d));
    }
    for (std::size_t e = 1; e <= m_.monitor.n_entities; ++e) {
      const std::uint32_t bit = 1u << (e - 1);
      if (!(o.d.risky & bit)) free_dead(m_.clocks.risky(e));
      if (e == 1 || !(o.d.ever_exited & bit)) free_dead(m_.clocks.safe(e));
    }
    for (std::size_t s = 0; s < o.d.slots.size(); ++s)
      if (!slot_active(o.d.slots[s])) free_dead(m_.clocks.msg(s));
    // Every clock is one of the kinds above, and each non-live one was
    // just dropped, so the zone stores exactly the live clocks iff the
    // counts agree.  A live clock without a row would mean it turned live
    // without a reset, and zones of one discrete state would no longer
    // share a layout.
    PTE_CHECK(o.z.stored_clocks() == m_.clocks.count - freed,
              "verify: a POR-live clock has no row in the zone");
  }

  // -- zone-op helpers ------------------------------------------------------
  bool apply_constrain(Outcome& o, std::size_t i, std::size_t j, PackedBound b) {
    if (o.rec) o.rec->ops.push_back(Op::constrain(i, j, b));
    o.z.constrain(i, j, b);
    return !o.z.is_empty();
  }
  void apply_reset(Outcome& o, std::size_t clock) {
    if (o.rec) o.rec->ops.push_back(Op::reset(clock));
    o.z.reset(clock);
  }

  /// Edge enabledness over the non-clock guard parts: static constants
  /// plus the current abstract values of toggleable inputs.
  bool edge_enabled(const CompiledEdge& e, const DState& d) const {
    if (!e.statically_enabled) return false;
    for (const auto& c : e.input_conds) {
      if (!c.sat[d.input_val[c.input]]) return false;
    }
    return true;
  }

  double atom_bound(const ClockAtom& atom, const DState& d) const {
    const double off =
        atom.deadline == ClockAtom::kNoDeadline ? 0.0 : d.offsets[atom.deadline];
    return off + atom.c_add;
  }
  /// The (i, j, bound) asserting the atom holds (engine compares
  /// non-strictly, so kGt/kLt behave as kGe/kLe).
  Op atom_assert(const ClockAtom& atom, const DState& d) const {
    const double k = atom_bound(atom, d);
    if (atom.cmp == hybrid::Cmp::kGe || atom.cmp == hybrid::Cmp::kGt)
      return Op::constrain(0, atom.clock, packed_le(-k));
    return Op::constrain(atom.clock, 0, packed_le(k));
  }
  Op atom_negate(const ClockAtom& atom, const DState& d) const {
    const double k = atom_bound(atom, d);
    if (atom.cmp == hybrid::Cmp::kGe || atom.cmp == hybrid::Cmp::kGt)
      return Op::constrain(atom.clock, 0, packed_lt(k));
    return Op::constrain(0, atom.clock, packed_lt(-k));
  }

  /// Guard of `e` as zone ops (min_dwell + clock atoms); at most one op
  /// ever comes back for the fall-through split (rejected at compile for
  /// the shapes that would need more).
  util::SmallVec<Op, 4> guard_ops(const CompiledEdge& e, std::size_t a,
                                  const DState& d) const {
    util::SmallVec<Op, 4> ops;
    if (e.min_dwell > 0.0)
      ops.push_back(Op::constrain(0, m_.clocks.dwell(a), packed_le(-e.min_dwell)));
    for (const ClockAtom& atom : e.atoms) ops.push_back(atom_assert(atom, d));
    return ops;
  }
  util::SmallVec<Op, 4> guard_negations(const CompiledEdge& e, std::size_t a,
                                        const DState& d) const {
    util::SmallVec<Op, 4> ops;
    if (e.min_dwell > 0.0)
      ops.push_back(Op::constrain(m_.clocks.dwell(a), 0, packed_lt(e.min_dwell)));
    for (const ClockAtom& atom : e.atoms) ops.push_back(atom_negate(atom, d));
    return ops;
  }

  // -- invariants (urgency) -------------------------------------------------
  /// Time may not pass the next forced transition: timed-edge dwells,
  /// satisfied-at deadline crossings, message acceptance deadlines.
  void apply_invariants(Outcome& o) {
    for (std::size_t a = 0; a < m_.automata.size(); ++a) {
      const CompiledLocation& loc = m_.automata[a].locations[o.d.loc[a]];
      double dwell_cap = std::numeric_limits<double>::infinity();
      for (std::size_t ti : loc.timed_edges) {
        const CompiledEdge& e = m_.automata[a].edges[ti];
        if (edge_enabled(e, o.d)) dwell_cap = std::min(dwell_cap, e.dwell);
      }
      for (std::size_t ci : loc.condition_edges) {
        const CompiledEdge& e = m_.automata[a].edges[ci];
        if (!edge_enabled(e, o.d)) continue;
        if (e.atoms.empty() && e.min_dwell > 0.0)
          dwell_cap = std::min(dwell_cap, e.min_dwell);
        for (const ClockAtom& atom : e.atoms) {
          if (atom.cmp == hybrid::Cmp::kGe || atom.cmp == hybrid::Cmp::kGt)
            apply_constrain(o, atom.clock, 0, packed_le(atom_bound(atom, o.d)));
        }
      }
      if (std::isfinite(dwell_cap))
        apply_constrain(o, m_.clocks.dwell(a), 0, packed_le(dwell_cap));
    }
    for (std::size_t s = 0; s < o.d.slots.size(); ++s) {
      if (slot_active(o.d.slots[s]))
        apply_constrain(o, m_.clocks.msg(s), 0, packed_le(m_.delivery_max));
    }
  }

  // -- PTE violation checks -------------------------------------------------
  [[noreturn]] void report(core::PteViolationKind kind, std::size_t entity,
                           std::size_t other, std::string desc, const Outcome& o) {
    throw FoundViolation{kind, entity, other, std::move(desc), o.step, o.rec};
  }

  /// If `o.z` ∧ extra is non-empty, the violation is reachable.  The
  /// O(1) feasibility pre-check avoids copying the outcome on the common
  /// (safe) path, and the description is built lazily — only on the
  /// (rare) violating path.
  template <typename DescFn>
  void check_timing(const Outcome& o, Step::Kind step_kind, Op extra,
                    core::PteViolationKind kind, std::size_t entity, std::size_t other,
                    DescFn&& desc) {
    if (!o.z.feasible(extra.i, extra.j, extra.b)) return;
    Outcome probe = o;
    probe.step.kind = step_kind;
    if (!apply_constrain(probe, extra.i, extra.j, extra.b)) return;
    report(kind, entity, other, desc(), probe);
  }

  void entity_enter_risky(Outcome& o, std::size_t e) {
    const std::size_t n = m_.monitor.n_entities;
    const std::uint32_t bit = 1u << (e - 1);
    if (e >= 2) {
      if (!(o.d.risky & (bit >> 1))) {
        report(core::PteViolationKind::kOrderEmbedding, e, e - 1,
               util::cat("xi", e, " entered risky while xi", e - 1,
                         " was in safe-locations"),
               o);
      }
      const double required = m_.monitor.t_risky_min[e - 2];
      check_timing(o, o.step.kind,
                   Op::constrain(m_.clocks.risky(e - 1), 0, packed_lt(required)),
                   core::PteViolationKind::kEnterSafeguard, e, e - 1, [&] {
                     return util::cat("xi", e, " can enter risky less than T^min_risky=",
                                      util::fmt_compact(required), "s after xi", e - 1);
                   });
    }
    if (e < n && (o.d.risky & (bit << 1))) {
      report(core::PteViolationKind::kOrderEmbedding, e, e + 1,
             util::cat("xi", e, " (re)entered risky while xi", e + 1,
                       " was already risky — embedding order lost"),
             o);
    }
    o.d.risky |= bit;
    apply_reset(o, m_.clocks.risky(e));
  }

  void entity_exit_risky(Outcome& o, std::size_t e) {
    const std::size_t n = m_.monitor.n_entities;
    const std::uint32_t bit = 1u << (e - 1);
    const double bound = m_.monitor.dwell_bounds[e - 1];
    check_timing(o, o.step.kind, Op::constrain(0, m_.clocks.risky(e), packed_lt(-bound)),
                 core::PteViolationKind::kDwellBound, e, 0, [&] {
                   return util::cat("xi", e,
                                    " can dwell in risky-locations beyond the bound ",
                                    util::fmt_compact(bound), "s");
                 });
    if (e < n) {
      if (o.d.risky & (bit << 1)) {
        report(core::PteViolationKind::kOrderEmbedding, e, e + 1,
               util::cat("xi", e, " exited risky while xi", e + 1, " was still risky"),
               o);
      }
      if ((o.d.ever_exited & (bit << 1)) &&
          o.z.feasible(m_.clocks.safe(e + 1), m_.clocks.risky(e), packed_le(0.0))) {
        // p3: the upper neighbor's latest exit fell inside this entity's
        // current risky interval (safe(e+1) <= risky(e)) and less than
        // T^min_safe ago.
        Outcome probe = o;
        const double required = m_.monitor.t_safe_min[e - 1];
        if (apply_constrain(probe, m_.clocks.safe(e + 1), m_.clocks.risky(e),
                            packed_le(0.0)) &&
            apply_constrain(probe, m_.clocks.safe(e + 1), 0, packed_lt(required))) {
          report(core::PteViolationKind::kExitSafeguard, e, e + 1,
                 util::cat("xi", e, " can exit risky less than T^min_safe=",
                           util::fmt_compact(required), "s after xi", e + 1),
                 probe);
        }
      }
    }
    o.d.risky &= ~bit;
    o.d.ever_exited |= bit;
    apply_reset(o, m_.clocks.safe(e));
  }

  // -- symbolic execution of one instant ------------------------------------
  // All three walkers append their final (settled) outcomes to `done` —
  // accumulating through one sink instead of returning per-level vectors
  // keeps the branching cascade free of intermediate vector churn.
  void fire_edge_sym(Outcome o, std::size_t a, std::size_t edge_idx, int depth,
                     std::vector<Outcome>& done) {
    PTE_CHECK(depth < 64, "verify: cascade of same-instant transitions too deep");
    const CompiledAutomaton& ca = m_.automata[a];
    const CompiledEdge& e = ca.edges[edge_idx];
    PTE_CHECK(o.d.loc[a] == e.src, "verify: firing edge from wrong location");
    if (o.rec) o.rec->trace.push_back(TraceRec::fire(a, e.src, e.dst));

    for (const auto& [didx, offset] : e.deadline_sets) {
      o.d.offsets[didx] = offset;
      apply_reset(o, m_.clocks.deadline(didx));
    }

    const bool was_risky = ca.locations[e.src].risky;
    const bool is_risky = ca.locations[e.dst].risky;
    o.d.loc[a] = static_cast<std::uint32_t>(e.dst);
    apply_reset(o, m_.clocks.dwell(a));

    // Entity e runs automaton e; the supervisor (0) is no PTE entity.
    if (a > 0 && was_risky != is_risky) {
      if (is_risky)
        entity_enter_risky(o, a);
      else
        entity_exit_risky(o, a);
    }

    if (e.emits.empty()) {
      settle_sym(std::move(o), a, depth + 1, done);
      return;
    }
    std::vector<Outcome> cur;
    cur.push_back(std::move(o));
    for (const CompiledEdge::Emit& emit : e.emits) {
      if (!emit.routed) continue;  // internal event, no receivers
      std::vector<Outcome> next;
      for (Outcome& oc : cur) {
        if (oc.d.losses < opt_.max_losses) {
          Outcome lost = oc;
          ++lost.d.losses;
          if (lost.rec)
            lost.rec->trace.push_back(TraceRec::send(emit.label, true, 0, emit.dst_automaton));
          next.push_back(std::move(lost));
        }
        std::size_t slot = kNone;
        for (std::size_t s = 0; s < oc.d.slots.size(); ++s) {
          if (!slot_active(oc.d.slots[s])) {
            slot = s;
            break;
          }
        }
        PTE_REQUIRE(slot != kNone,
                    "verify: too many concurrent in-flight messages — raise max_in_flight");
        oc.d.slots[slot] = make_slot(emit.label, emit.dst_automaton);
        apply_reset(oc, m_.clocks.msg(slot));
        if (oc.rec)
          oc.rec->trace.push_back(TraceRec::send(emit.label, false, slot, emit.dst_automaton));
        next.push_back(std::move(oc));
      }
      cur = std::move(next);
    }

    for (Outcome& oc : cur) settle_sym(std::move(oc), a, depth + 1, done);
  }

  /// Mirror of Engine::settle_conditions — walk the (new) location's
  /// condition edges in order, splitting the zone where a guard may or
  /// may not hold at this instant.
  void settle_sym(Outcome o, std::size_t a, int depth, std::vector<Outcome>& done) {
    const CompiledLocation& loc = m_.automata[a].locations[o.d.loc[a]];
    for (std::size_t ci : loc.condition_edges) {
      const CompiledEdge& e = m_.automata[a].edges[ci];
      if (!edge_enabled(e, o.d)) continue;
      const auto asserts = guard_ops(e, a, o.d);
      if (asserts.empty()) {
        // Unconditionally enabled: fires right now (first in settle order
        // wins, exactly like the engine).
        fire_edge_sym(std::move(o), a, ci, depth + 1, done);
        return;
      }
      PTE_CHECK(asserts.size() == 1, "verify: condition guard with several clock conjuncts");
      if (o.z.feasible(asserts[0].i, asserts[0].j, asserts[0].b)) {
        Outcome fire = o;
        apply_constrain(fire, asserts[0].i, asserts[0].j, asserts[0].b);
        fire_edge_sym(std::move(fire), a, ci, depth + 1, done);
      }
      const auto negs = guard_negations(e, a, o.d);
      if (!apply_constrain(o, negs[0].i, negs[0].j, negs[0].b)) return;
    }
    done.push_back(std::move(o));
  }

  /// Mirror of Engine::dispatch_event: first matching enabled edge
  /// consumes; a guard that may or may not hold splits the zone, the
  /// falling-through part trying the next edge.  The terminal outcome
  /// (no edge consumed) is appended with step.consumed == false.
  void dispatch_sym(Outcome o, std::size_t a, hybrid::LabelId label, int depth,
                    std::vector<Outcome>& done) {
    const CompiledLocation& loc = m_.automata[a].locations[o.d.loc[a]];
    for (std::size_t ei : loc.event_edges) {
      const CompiledEdge& e = m_.automata[a].edges[ei];
      if (e.trigger != label || !edge_enabled(e, o.d)) continue;
      const auto asserts = guard_ops(e, a, o.d);
      if (asserts.empty()) {
        o.step.consumed = true;
        fire_edge_sym(std::move(o), a, ei, depth + 1, done);
        return;
      }
      PTE_REQUIRE(asserts.size() == 1,
                  "verify: event-edge guard with several clock conjuncts — unsupported");
      if (o.z.feasible(asserts[0].i, asserts[0].j, asserts[0].b)) {
        Outcome fire = o;
        apply_constrain(fire, asserts[0].i, asserts[0].j, asserts[0].b);
        fire.step.consumed = true;
        fire_edge_sym(std::move(fire), a, ei, depth + 1, done);
      }
      const auto negs = guard_negations(e, a, o.d);
      if (!apply_constrain(o, negs[0].i, negs[0].j, negs[0].b)) return;
    }
    done.push_back(std::move(o));  // ignored delivery
  }

  // -- successor generation -------------------------------------------------
  void build_initial() {
    DState d;
    d.loc.assign(m_.automata.size(), 0);
    for (std::size_t a = 0; a < m_.automata.size(); ++a)
      d.loc[a] = static_cast<std::uint32_t>(m_.automata[a].initial_location);
    d.offsets.assign(m_.deadlines.size(), 0.0);
    for (std::size_t i = 0; i < m_.deadlines.size(); ++i)
      d.offsets[i] = m_.deadlines[i].initial_offset;
    d.slots.assign(m_.max_in_flight, 0);
    d.input_val.assign(m_.inputs.size(), 0);

    Outcome o;
    o.d = std::move(d);
    o.z = Zone(m_.clocks.count);
    o.step.kind = Step::Kind::kInit;
    if (record_) o.rec.emplace();

    // Engine::init(): enter all initial locations (monitor observes risky
    // initial locations), then settle each automaton in index order.
    for (std::size_t a = 1; a < m_.automata.size(); ++a) {
      if (m_.automata[a].locations[o.d.loc[a]].risky) entity_enter_risky(o, a);
    }
    std::vector<Outcome> cur;
    cur.push_back(std::move(o));
    for (std::size_t a = 0; a < m_.automata.size(); ++a) {
      std::vector<Outcome> next;
      for (Outcome& oc : cur) {
        settle_sym(std::move(oc), a, 0, next);
      }
      cur = std::move(next);
    }
    for (Outcome& oc : cur) emit(std::move(oc));
  }

  void process(const Node& n) {
    Outcome base;
    base.d = n.d;
    base.z = n.z;
    if (record_) base.rec.emplace();
    base.z.up();
    apply_invariants(base);
    if (base.z.is_empty()) return;

    // Rule 1: can any risky entity outlast its dwell bound?  (Checked on
    // the delayed zone: also covers "still risky at any horizon".)
    for (std::size_t e = 1; e <= m_.monitor.n_entities; ++e) {
      if (!(base.d.risky & (1u << (e - 1)))) continue;
      const double bound = m_.monitor.dwell_bounds[e - 1];
      check_timing(base, Step::Kind::kViolation,
                   Op::constrain(0, m_.clocks.risky(e), packed_lt(-bound)),
                   core::PteViolationKind::kDwellBound, e, 0, [&] {
                     return util::cat("xi", e,
                                      " can dwell in risky-locations beyond the bound ",
                                      util::fmt_compact(bound), "s");
                   });
    }

    // Timed edges: the earliest statically-enabled dwell fires (insertion
    // order breaks ties, like the engine's scheduler FIFO).
    for (std::size_t a = 0; a < m_.automata.size(); ++a) {
      const CompiledLocation& loc = m_.automata[a].locations[base.d.loc[a]];
      double dwell_min = std::numeric_limits<double>::infinity();
      std::size_t winner = kNone;
      for (std::size_t ti : loc.timed_edges) {
        const CompiledEdge& e = m_.automata[a].edges[ti];
        if (edge_enabled(e, base.d) && e.dwell < dwell_min) {
          dwell_min = e.dwell;
          winner = ti;
        }
      }
      if (winner == kNone) continue;
      if (!base.z.feasible(0, m_.clocks.dwell(a), packed_le(-dwell_min))) continue;
      Outcome o = base;
      o.step.kind = Step::Kind::kTimed;
      o.step.automaton = static_cast<std::uint32_t>(a);
      apply_constrain(o, 0, m_.clocks.dwell(a), packed_le(-dwell_min));
      scratch_.clear();
      fire_edge_sym(std::move(o), a, winner, 0, scratch_);
      for (Outcome& r : scratch_) emit(std::move(r));
    }

    // Condition edges pending a deadline crossing (or a min-dwell).
    for (std::size_t a = 0; a < m_.automata.size(); ++a) {
      const CompiledLocation& loc = m_.automata[a].locations[base.d.loc[a]];
      for (std::size_t ci : loc.condition_edges) {
        const CompiledEdge& e = m_.automata[a].edges[ci];
        if (!edge_enabled(e, base.d)) continue;
        if (e.atoms.empty() && e.min_dwell == 0.0) {
          PTE_CHECK(false, "verify: settled state holds an immediately-enabled condition edge");
        }
        // kLe/kLt atoms can only hold at entry (ages only grow); settled
        // states cannot re-enable them.
        if (!e.atoms.empty() && (e.atoms[0].cmp == hybrid::Cmp::kLe ||
                                 e.atoms[0].cmp == hybrid::Cmp::kLt))
          continue;
        const auto asserts = guard_ops(e, a, base.d);
        PTE_CHECK(asserts.size() == 1, "verify: condition guard arity");
        if (!base.z.feasible(asserts[0].i, asserts[0].j, asserts[0].b)) continue;
        Outcome o = base;
        o.step.kind = Step::Kind::kCondition;
        o.step.automaton = static_cast<std::uint32_t>(a);
        apply_constrain(o, asserts[0].i, asserts[0].j, asserts[0].b);
        scratch_.clear();
        fire_edge_sym(std::move(o), a, ci, 0, scratch_);
        for (Outcome& r : scratch_) emit(std::move(r));
      }
    }

    // Message deliveries: any in-flight message may arrive once its age
    // reaches the delivery window's lower edge.
    for (std::size_t s = 0; s < base.d.slots.size(); ++s) {
      if (!slot_active(base.d.slots[s])) continue;
      Outcome o = base;
      o.step.kind = Step::Kind::kDeliver;
      o.step.slot = static_cast<std::uint32_t>(s);
      o.step.root = slot_label(base.d.slots[s]);
      const std::size_t dst = slot_dst(base.d.slots[s]);
      const hybrid::LabelId label = slot_label(base.d.slots[s]);
      if (m_.delivery_min > 0.0 &&
          !apply_constrain(o, 0, m_.clocks.msg(s), packed_le(-m_.delivery_min)))
        continue;
      o.d.slots[s] = 0;
      apply_reset(o, m_.clocks.msg(s));
      scratch_.clear();
      dispatch_sym(std::move(o), dst, label, 0, scratch_);
      for (Outcome& r : scratch_) emit(std::move(r));
    }

    // Environment stimuli at any instant, within the injection budget.
    if (base.d.injections < opt_.max_injections) {
      for (const auto& stim : m_.stimuli) {
        Outcome o = base;
        o.step.kind = Step::Kind::kInject;
        o.step.automaton = static_cast<std::uint32_t>(stim.automaton);
        o.step.root = stim.label;
        ++o.d.injections;
        scratch_.clear();
        dispatch_sym(std::move(o), stim.automaton, stim.label, 0, scratch_);
        for (Outcome& r : scratch_) {
          if (r.step.consumed) emit(std::move(r));
        }
      }
    }

    // Adversarial input writes (ApprovalCondition collapse etc.), within
    // the input-change budget.  Engine::set_var settles the written
    // automaton's condition edges at the same instant.
    if (base.d.input_changes < opt_.max_input_changes) {
      for (std::size_t ti = 0; ti < m_.toggles.size(); ++ti) {
        const CompiledModel::CompiledToggle& tg = m_.toggles[ti];
        if (base.d.input_val[tg.input] == tg.value_index) continue;
        const CompiledModel::InputVar& iv = m_.inputs[tg.input];
        Outcome o = base;
        o.step.kind = Step::Kind::kToggle;
        o.step.automaton = static_cast<std::uint32_t>(iv.automaton);
        o.step.slot = static_cast<std::uint32_t>(ti);  // toggle index
        o.d.input_val[tg.input] = static_cast<std::uint8_t>(tg.value_index);
        ++o.d.input_changes;
        if (o.rec) o.rec->trace.push_back(TraceRec::set(ti));
        scratch_.clear();
        settle_sym(std::move(o), iv.automaton, 0, scratch_);
        for (Outcome& r : scratch_) emit(std::move(r));
      }
    }
  }

  const CompiledModel& m_;
  const VerifyOptions& opt_;
  std::size_t shards_;
  bool record_;
  std::vector<std::vector<Pending>> out_;
  const Node* parent_ = nullptr;
  std::uint64_t parent_rank_ = 0;
  std::uint32_t ordinal_ = 0;
  std::uint64_t transitions_ = 0;
  std::vector<Outcome> scratch_;  // per-expansion sink, reused
};

// -- the checker ------------------------------------------------------------

class Checker {
 public:
  Checker(const CompiledModel& model, const VerifyOptions& options)
      : m_(model), opt_(options) {
    PTE_REQUIRE(m_.monitor.n_entities <= 32, "verify: more than 32 PTE entities");
    PTE_REQUIRE(m_.clocks.count < 255, "verify: more than 254 clocks");
  }

  VerifyResult run();

 private:
  /// One antichain member: the k-widened (NOT re-closed) matrix of a
  /// stored zone plus its inclusion signature and owning node.  The
  /// widened matrix represents the extrapolated set exactly for
  /// "probe ⊆ stored" tests (entrywise, probe canonical), which is all
  /// the finite-lattice termination argument needs — and skipping the
  /// re-close removes the Floyd–Warshall that used to dominate the
  /// profile.  Chains stay sorted ascending by signature so subset scans
  /// touch only the plausible range: only entries with sig >= the
  /// probe's can contain it, only entries with sig <= can be contained
  /// by it.
  struct AEntry {
    std::int64_t sig = 0;
    std::int64_t lower_sig = 0;  // second prune axis (row-0 sum)
    Zone widened;
    Node* node = nullptr;
  };

  /// Per-worker shard: nodes whose discrete hash maps here, their
  /// antichain passed/waiting store, and the nodes it kept this round.
  /// Padded so neighboring shards' hot fields don't share cache lines.
  struct alignas(64) Shard {
    NodeArena nodes;
    std::unordered_map<DKey, std::vector<AEntry>, DKeyHash> visited;
    std::vector<Node*> next;   // ascending (prank, ordinal)
    std::vector<PendingRef> refs;  // absorb's canonical order, reused
    std::vector<RoundViolation> violations;
  };

  /// Absorb phase for shard `w`: order every producer's pendings targeted
  /// here canonically, then run each through the store, reading it in
  /// place in its producer's buffer.  The canonical sort is what makes
  /// the store's mutation sequence — and with it the whole search —
  /// independent of thread interleaving AND of the shard count (all
  /// states of one discrete key land in the same shard, in the same
  /// relative order).
  void absorb(std::size_t w, std::vector<Expander>& expanders) {
    Shard& shard = shards_[w];
    shard.refs.clear();
    for (std::uint32_t producer = 0; producer < expanders.size(); ++producer) {
      const std::vector<Pending>& produced = expanders[producer].out()[w];
      for (std::uint32_t i = 0; i < produced.size(); ++i)
        shard.refs.push_back(
            PendingRef{produced[i].parent_rank, produced[i].ordinal, producer, i});
    }
    std::sort(shard.refs.begin(), shard.refs.end());
    for (const PendingRef& ref : shard.refs) store(w, expanders[ref.producer].out()[w][ref.index]);
    for (Expander& e : expanders) e.out()[w].clear();
  }

  /// Run one pending through shard `w`'s store; if it is kept, build its
  /// node straight from it.
  void store(std::size_t w, Pending& p) {
    Shard& shard = shards_[w];
    auto& chain = shard.visited[p.key];
    const auto keep_node = [&] {
      Node* node = shard.nodes.emplace(std::move(p));
      shard.next.push_back(node);
      return node;
    };
    if (opt_.subsumption) {
      // Drop test on the exact zone against the stored widened matrices:
      // only chain entries with sig >= the probe's can contain it.
      // (Exact ⊆ widened is the same predicate as extrapolated ⊆
      // extrapolated would be, and catches more.)
      auto ge = std::lower_bound(chain.begin(), chain.end(), p.raw.sig,
                                 [](const AEntry& e, std::int64_t s) { return e.sig < s; });
      for (auto it = ge; it != chain.end(); ++it) {
        if (p.raw.lower > it->lower_sig) continue;
        if (p.o.z.subset_of(it->widened)) return;
      }
      Zone::SigPair wsig;
      Zone widened = p.o.z.widened(m_.max_constant, wsig);
      const std::int64_t sig = wsig.sig;
      const std::int64_t lower = wsig.lower;
      // The new zone may subsume visited ones (only sig <= candidates;
      // entrywise widened <= widened is sufficient for set inclusion):
      // evict them, and mark still-unexpanded victims stale so they stay
      // out of the next frontier.
      auto le = std::upper_bound(chain.begin(), chain.end(), sig,
                                 [](std::int64_t s, const AEntry& e) { return s < e.sig; });
      auto keep = chain.begin();
      for (auto it = chain.begin(); it != le; ++it) {
        if (it->lower_sig <= lower && it->widened.subset_of(widened)) {
          it->node->stale = true;
          it->node->z = Zone(0);  // retire the unexpanded zone's matrix
          continue;
        }
        if (keep != it) *keep = std::move(*it);
        ++keep;
      }
      if (keep != le) chain.erase(std::move(le, chain.end(), keep), chain.end());
      Node* node = keep_node();
      chain.insert(std::upper_bound(chain.begin(), chain.end(), sig,
                                    [](std::int64_t s, const AEntry& e) { return s < e.sig; }),
                   AEntry{sig, lower, std::move(widened), node});
    } else {
      // Exact-equality store (the cross-check oracle): no antichain, just
      // extrapolated-zone deduplication.  Equal zones have equal
      // signatures, so only that range is scanned.
      p.o.z.extrapolate(m_.max_constant);
      const std::int64_t sig = p.o.z.signature();
      auto ge = std::lower_bound(chain.begin(), chain.end(), sig,
                                 [](const AEntry& e, std::int64_t s) { return e.sig < s; });
      for (auto it = ge; it != chain.end() && it->sig == sig; ++it)
        if (it->node->z == p.o.z) return;
      Node* node = keep_node();
      chain.insert(ge, AEntry{sig, 0, Zone(0), node});
    }
  }

  /// Serial between-rounds step: merge the shards' kept nodes (each
  /// shard's already in canonical order), assign global ranks, and build
  /// the next frontier from the nodes no later store evicted.  A stale
  /// node keeps its rank; it only stays out of the frontier.
  void assign_ranks() {
    std::vector<std::size_t> cursor(shards_.size(), 0);
    std::size_t total = 0;
    for (const Shard& s : shards_) total += s.next.size();
    frontier_.clear();
    for (std::uint64_t rank = 0; rank < total; ++rank) {
      std::size_t best = kNone;
      for (std::size_t w = 0; w < shards_.size(); ++w) {
        if (cursor[w] >= shards_[w].next.size()) continue;
        if (best == kNone) {
          best = w;
          continue;
        }
        const Node* a = shards_[w].next[cursor[w]];
        const Node* b = shards_[best].next[cursor[best]];
        if (a->prank < b->prank ||
            (a->prank == b->prank && a->ordinal < b->ordinal))
          best = w;
      }
      Node* n = shards_[best].next[cursor[best]++];
      n->rank = rank;
      if (!n->stale) frontier_.push_back(n);
    }
    for (Shard& s : shards_) s.next.clear();
  }

  Counterexample concretize(const RoundViolation& rv);

  const CompiledModel& m_;
  VerifyOptions opt_;
  std::vector<Shard> shards_;
  std::vector<Node*> frontier_;  // the round's live nodes, ascending rank
};

VerifyResult Checker::run() {
  const std::size_t threads = util::resolve_threads(opt_.threads);
  shards_.resize(threads);
  util::Gang gang(threads);

  std::vector<Expander> expanders;
  expanders.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) expanders.emplace_back(m_, opt_, threads);
  const auto absorb_round = [&] {
    gang.run([&](std::size_t w) { absorb(w, expanders); });
    assign_ranks();
  };

  VerifyResult result;
  std::uint64_t explored = 0;
  bool truncated = false;
  std::optional<RoundViolation> violation;

  // Round 0: the initial settle, routed through the same absorb path.
  try {
    expanders[0].expand(nullptr);
  } catch (FoundViolation& v) {
    violation = RoundViolation{std::move(v), nullptr, 0};
  }
  if (!violation) absorb_round();

  while (!violation && !frontier_.empty()) {
    // Budget cutoff: only the frontier's first `remaining` nodes (in
    // global rank order) may expand — deterministic at every thread
    // count, like the serial FIFO's pop limit.
    const std::uint64_t remaining = opt_.max_states - explored;
    if (frontier_.size() > remaining) {
      frontier_.resize(static_cast<std::size_t>(remaining));
      truncated = true;
    }
    // Expand phase: work stealing over the rank-ordered frontier, so a
    // worker whose nodes expand quickly takes the slack of one whose
    // nodes branch heavily.  Determinism is untouched: the *set* of
    // expanded nodes is fixed before the phase starts, every successor
    // carries its canonical (parent rank, ordinal) key, the absorb phase
    // re-sorts before any store mutation, and violation selection takes
    // the round's lowest rank.
    gang.for_each(frontier_.size(), [&](std::size_t i, std::size_t w) {
      Node* n = frontier_[i];
      try {
        expanders[w].expand(n);
      } catch (FoundViolation& v) {
        shards_[w].violations.push_back(RoundViolation{std::move(v), n, n->rank});
      }
      // An expanded node's matrix is never read again (inclusion tests
      // use the antichain's widened copy, counterexamples re-derive their
      // zones from the root) — retire it to the pool.  The exact-equality
      // oracle still needs it for deduplication.
      if (opt_.subsumption) n->z = Zone(0);
    });
    explored += frontier_.size();

    // Deterministic violation selection: the round's lowest-ranked
    // expanding node wins, regardless of which worker found what first.
    for (Shard& s : shards_) {
      for (RoundViolation& rv : s.violations) {
        if (!violation || rv.rank < violation->rank) violation = std::move(rv);
      }
      s.violations.clear();
    }
    if (violation || truncated) break;
    absorb_round();
  }

  if (violation) {
    result.status = VerifyStatus::kViolation;
    result.counterexample = concretize(*violation);
  } else {
    // Every break that leaves work behind sets `truncated`.
    result.status = truncated ? VerifyStatus::kOutOfBudget : VerifyStatus::kProved;
  }
  result.states_explored = explored;
  result.threads_used = threads;
  for (const Shard& s : shards_) result.states_stored += s.nodes.size();
  // Fingerprint sketch over the visited KEYS (not the antichain entries):
  // a key stays in the map even when subsumption empties its chain, and
  // the key set is shard-count-independent (absorb order is canonical),
  // so the sketch is deterministic at every thread count.  Keys are
  // unique within a shard's map and shards partition by h1, so each
  // fingerprint is added exactly once.
  for (const Shard& s : shards_)
    for (const auto& kv : s.visited) result.sketch.add(kv.first.h1, kv.first.h2);
  for (const Expander& e : expanders) result.transitions += e.transitions();
  return result;
}

Counterexample Checker::concretize(const RoundViolation& rv) {
  const FoundViolation& v = rv.v;
  // 1. The abstract path: root .. rv.parent, re-derived, then the
  //    violating step.  Expansion is deterministic, and on one shard a
  //    successor's ordinal is its index in the output buffer, so
  //    replaying each node's ordinal from the root rebuilds the node and
  //    the step that reached it.  The rebuilt zone is the one the search
  //    expanded: exact, or extrapolated as the exact-equality store does.
  //    Only this expander records the steps' ops, sends and narrative.
  std::vector<const Node*> path;
  for (const Node* n = rv.parent; n != nullptr; n = n->parent) path.push_back(n);
  std::reverse(path.begin(), path.end());
  std::vector<Step> steps;
  std::vector<StepRecord> records;
  Expander replay(m_, opt_, 1, /*record=*/true);
  std::vector<Pending>& out = replay.out()[0];
  std::optional<Node> at;  // the rebuilt node expanded last
  for (const Node* n : path) {
    replay.expand(at ? &*at : nullptr);
    PTE_CHECK(n->ordinal < out.size() && out[n->ordinal].key == n->d.key(),
              "verify: a path node's ordinal is not in its re-derived parent's expansion");
    steps.push_back(out[n->ordinal].o.step);
    records.push_back(std::move(*out[n->ordinal].o.rec));
    at.emplace(std::move(out[n->ordinal]));
    if (!opt_.subsumption) at->z.extrapolate(m_.max_constant);
    out.clear();
  }
  // The violating step: expanding rv.parent again throws the same first
  // violation the search caught.
  std::optional<FoundViolation> again;
  try {
    replay.expand(at ? &*at : nullptr);
  } catch (FoundViolation& fv) {
    again = std::move(fv);
  }
  PTE_CHECK(again.has_value(), "verify: re-expanding a violation's parent found no violation");
  PTE_CHECK(again->kind == v.kind && again->entity == v.entity && again->other == v.other &&
                again->description == v.description,
            "verify: the re-derived violation differs from the search's");
  steps.push_back(again->step);
  records.push_back(std::move(*again->rec));
  const std::size_t k = steps.size();

  // 2. Exact forward zones (no extrapolation): Z_0 = init-step ops on the
  //    zero point; Z_i = ops_i(up(Z_{i-1})).
  auto apply_ops = [](Zone z, const StepRecord& s) {
    for (const Op& op : s.ops) {
      if (op.kind == Op::Kind::kConstrain)
        z.constrain(op.i, op.j, op.b);
      else
        z.reset(op.i);
    }
    return z;
  };
  std::vector<Zone> forward;
  forward.reserve(k);
  forward.push_back(apply_ops(Zone(m_.clocks.count), records[0]));
  for (std::size_t i = 1; i < k; ++i) {
    Zone z = forward[i - 1];
    z.up();
    forward.push_back(apply_ops(std::move(z), records[i]));
  }
  PTE_CHECK(!forward.back().is_empty(),
            "verify: abstract counterexample path is infeasible without extrapolation");

  // 3. Backward pass: B_i ⊆ Z_i feasible suffixes; P_i is the pre-op
  //    (post-delay) set of step i, used to pick concrete delays.
  std::vector<Zone> pre(k, Zone(m_.clocks.count));
  Zone b = forward[k - 1];
  for (std::size_t i = k; i-- > 1;) {
    Zone p = b;
    const StepRecord& s = records[i];
    for (std::size_t oi = s.ops.size(); oi-- > 0;) {
      const Op& op = s.ops[oi];
      if (op.kind == Op::Kind::kReset)
        p.free(op.i);
      else
        p.constrain(op.i, op.j, op.b);
    }
    pre[i] = p;
    p.down();
    p.intersect(forward[i - 1]);
    PTE_CHECK(!p.is_empty(), "verify: backward feasibility pass hit an empty zone");
    b = std::move(p);
  }

  // 4. Concrete forward pass: start at the all-zero point; each step
  //    advances by the smallest delay that lands in its pre-op set.
  const std::size_t nc = m_.clocks.count;
  std::vector<double> x(nc, 0.0);
  std::vector<double> step_time(k, 0.0);
  double t = 0.0;
  auto run_ops = [&x](const StepRecord& s) {
    for (const Op& op : s.ops) {
      if (op.kind == Op::Kind::kReset) x[op.i - 1] = 0.0;
    }
  };
  run_ops(records[0]);
  for (std::size_t i = 1; i < k; ++i) {
    double lo = 0.0, hi = std::numeric_limits<double>::infinity();
    for (std::size_t c = 1; c <= nc; ++c) {
      const Bound ub = pre[i].at(c, 0);
      if (!ub.is_inf()) hi = std::min(hi, ub.value - x[c - 1]);
      const Bound lb = pre[i].at(0, c);
      if (!lb.is_inf()) {
        const double cand = -lb.value - x[c - 1];
        if (cand > lo) lo = cand;
      }
    }
    PTE_CHECK(lo <= hi + 1e-6, "verify: concretization found an empty delay interval");
    double delta = std::max(lo, 0.0);
    // Prefer an interior point whenever the window has width: a step at
    // the exact boundary of its predecessor's instant would race the
    // engine's same-instant FIFO (e.g. a pre-scheduled set_var vs. a
    // delivery), flipping the order the abstract path requires.  Any
    // interior point still lands in the backward-feasible suffix set.
    const double width = (std::isinf(hi) ? 1.0 : hi) - delta;
    if (width > 1e-9) delta += std::min(1e-4, width * 0.5);
    t += delta;
    for (double& cv : x) cv += delta;
    step_time[i] = t;
    run_ops(records[i]);
  }

  // 5. Assemble the counterexample script.
  Counterexample cx;
  cx.kind = v.kind;
  cx.entity = v.entity;
  cx.other_entity = v.other;
  cx.description = v.description;
  cx.time = t;
  cx.horizon = t + 1e-3;
  auto root_of = [this](hybrid::LabelId label) { return m_.labels.root_of(label); };
  std::vector<std::size_t> slot_send(m_.max_in_flight, kNone);
  for (std::size_t i = 0; i < k; ++i) {
    const Step& s = steps[i];
    const StepRecord& rec = records[i];
    const double st = step_time[i];
    if (s.kind == Step::Kind::kInject && s.consumed)
      cx.injections.push_back(CounterexampleInjection{st, s.automaton, root_of(s.root)});
    if (s.kind == Step::Kind::kToggle) {
      const CompiledModel::CompiledToggle& tg = m_.toggles[s.slot];
      const CompiledModel::InputVar& iv = m_.inputs[tg.input];
      cx.toggles.push_back(CounterexampleToggle{st, iv.automaton, iv.var,
                                                iv.values[tg.value_index], iv.name});
    }
    if (s.kind == Step::Kind::kDeliver) {
      PTE_CHECK(s.slot < slot_send.size() && slot_send[s.slot] != kNone,
                "verify: delivery without a matching send");
      cx.sends[slot_send[s.slot]].deliver_time = st;
      slot_send[s.slot] = kNone;
    }
    std::string line = util::cat("[t=", util::fmt_double(st, 4), "] ");
    switch (s.kind) {
      case Step::Kind::kInit: line += "init"; break;
      case Step::Kind::kTimed: line += util::cat("timeout in ", m_.automata[s.automaton].name); break;
      case Step::Kind::kCondition:
        line += util::cat("condition in ", m_.automata[s.automaton].name);
        break;
      case Step::Kind::kDeliver:
        line += util::cat("deliver ", root_of(s.root), s.consumed ? "" : " (ignored)");
        break;
      case Step::Kind::kInject: line += util::cat("inject ", root_of(s.root)); break;
      case Step::Kind::kToggle:
        line += util::cat("set-var ", m_.inputs[m_.toggles[s.slot].input].name);
        break;
      case Step::Kind::kViolation: line += "delay"; break;
    }
    for (const TraceRec& tr : rec.trace) {
      switch (tr.kind) {
        case TraceRec::Kind::kFire:
          line += util::cat("; ", m_.automata[tr.a].name, ": #", tr.b, " -> #", tr.c);
          break;
        case TraceRec::Kind::kSend:
        case TraceRec::Kind::kLost: {
          const bool lost = tr.kind == TraceRec::Kind::kLost;
          if (!lost) slot_send[tr.b] = cx.sends.size();
          cx.sends.push_back(CounterexampleSend{st, lost, 0.0, tr.c, root_of(tr.a)});
          line += util::cat(lost ? ";   LOST " : ";   send ", root_of(tr.a));
          break;
        }
        case TraceRec::Kind::kSet: {
          const CompiledModel::CompiledToggle& tg = m_.toggles[tr.a];
          const CompiledModel::InputVar& iv = m_.inputs[tg.input];
          line += util::cat("; set ", iv.name, " := ",
                            util::fmt_compact(iv.values[tg.value_index]));
          break;
        }
      }
    }
    if (i + 1 == k)
      line += util::cat("; VIOLATION: ", core::violation_kind_str(v.kind), ": ",
                        v.description);
    cx.narrative.push_back(std::move(line));
  }
  // Sends still in flight at the violation instant never arrive in the
  // replay: mark them lost (identical behavior up to the horizon).
  for (std::size_t si = 0; si < cx.sends.size(); ++si) {
    bool pending = false;
    for (std::size_t sl = 0; sl < slot_send.size(); ++sl)
      if (slot_send[sl] == si) pending = true;
    if (pending) cx.sends[si].lost = true;
  }
  return cx;
}

}  // namespace

std::string verify_status_str(VerifyStatus status) {
  switch (status) {
    case VerifyStatus::kProved: return "proved";
    case VerifyStatus::kViolation: return "violation";
    case VerifyStatus::kOutOfBudget: return "out-of-budget";
  }
  return "?";
}

std::string Counterexample::str() const {
  std::string out = util::cat("counterexample: ", core::violation_kind_str(kind), " at t=",
                              util::fmt_double(time, 4), "s — ", description, "\n");
  for (const auto& inj : injections)
    out += util::cat("  inject  [t=", util::fmt_double(inj.t, 4), "] ", inj.root, "\n");
  for (const auto& tg : toggles)
    out += util::cat("  set-var [t=", util::fmt_double(tg.t, 4), "] ", tg.var_name, " := ",
                     util::fmt_compact(tg.value), "\n");
  for (const auto& s : sends) {
    out += util::cat("  send    [t=", util::fmt_double(s.send_time, 4), "] ", s.root,
                     s.lost ? "  -> LOST"
                            : util::cat("  -> delivered at t=",
                                        util::fmt_double(s.deliver_time, 4)),
                     "\n");
  }
  out += "  narrative:\n";
  for (const auto& line : narrative) out += util::cat("    ", line, "\n");
  return out;
}

util::Json Counterexample::to_json() const {
  util::Json out = util::Json::object();
  out.set("kind", core::violation_kind_str(kind));
  out.set("entity", entity);
  out.set("other_entity", other_entity);
  out.set("description", description);
  out.set("time", time);
  out.set("horizon", horizon);
  util::Json inj = util::Json::array();
  for (const auto& i : injections) {
    util::Json one = util::Json::object();
    one.set("t", i.t);
    one.set("automaton", i.automaton);
    one.set("root", i.root);
    inj.push_back(std::move(one));
  }
  out.set("injections", std::move(inj));
  util::Json tgs = util::Json::array();
  for (const auto& t : toggles) {
    util::Json one = util::Json::object();
    one.set("t", t.t);
    one.set("automaton", t.automaton);
    one.set("var", t.var_name);
    one.set("value", t.value);
    tgs.push_back(std::move(one));
  }
  out.set("toggles", std::move(tgs));
  util::Json snd = util::Json::array();
  for (const auto& s : sends) {
    util::Json one = util::Json::object();
    one.set("send_time", s.send_time);
    one.set("lost", s.lost);
    if (!s.lost) one.set("deliver_time", s.deliver_time);
    one.set("dst_automaton", s.dst_automaton);
    one.set("root", s.root);
    snd.push_back(std::move(one));
  }
  out.set("sends", std::move(snd));
  util::Json narr = util::Json::array();
  for (const auto& line : narrative) narr.push_back(line);
  out.set("narrative", std::move(narr));
  return out;
}

std::string VerifyResult::summary() const {
  std::string out = util::cat("verify: ", verify_status_str(status), "; states explored ",
                              states_explored, ", stored ", states_stored, ", transitions ",
                              transitions);
  if (counterexample.has_value())
    out += util::cat("; ", core::violation_kind_str(counterexample->kind), " at t=",
                     util::fmt_double(counterexample->time, 4), "s");
  return out;
}

// NOTE: to_json identifies a toggle's variable by name only, so the
// numeric VarId does not survive the round trip (it stays 0).  A parsed
// counterexample is an archival/reporting artifact — re-rendering it is
// bit-identical — but replay_counterexample needs the original in-memory
// object (the result cache stores replay outcomes as flags instead of
// re-replaying).
Counterexample Counterexample::from_json(const util::Json& j) {
  util::JsonReader r(j, "counterexample");
  Counterexample cx;
  const std::string kind = r.string("kind", "");
  bool kind_ok = false;
  for (const core::PteViolationKind k :
       {core::PteViolationKind::kDwellBound, core::PteViolationKind::kOrderEmbedding,
        core::PteViolationKind::kEnterSafeguard, core::PteViolationKind::kExitSafeguard}) {
    if (core::violation_kind_str(k) == kind) {
      cx.kind = k;
      kind_ok = true;
      break;
    }
  }
  if (!kind_ok) r.fail("kind", util::cat("unknown violation kind \"", kind, "\""));
  cx.entity = r.uinteger("entity", 0);
  cx.other_entity = r.uinteger("other_entity", 0);
  cx.description = r.string("description", "");
  cx.time = r.number("time", 0.0);
  cx.horizon = r.number("horizon", 0.0);
  if (const util::Json* inj = r.optional("injections")) {
    for (const util::Json& one : inj->as_array()) {
      util::JsonReader ri(one, "counterexample.injections");
      CounterexampleInjection i;
      i.t = ri.number("t", 0.0);
      i.automaton = ri.uinteger("automaton", 0);
      i.root = ri.string("root", "");
      ri.finish();
      cx.injections.push_back(std::move(i));
    }
  }
  if (const util::Json* tgs = r.optional("toggles")) {
    for (const util::Json& one : tgs->as_array()) {
      util::JsonReader rt(one, "counterexample.toggles");
      CounterexampleToggle t;
      t.t = rt.number("t", 0.0);
      t.automaton = rt.uinteger("automaton", 0);
      t.var_name = rt.string("var", "");
      t.value = rt.number("value", 0.0);
      rt.finish();
      cx.toggles.push_back(std::move(t));
    }
  }
  if (const util::Json* snd = r.optional("sends")) {
    for (const util::Json& one : snd->as_array()) {
      util::JsonReader rs(one, "counterexample.sends");
      CounterexampleSend s;
      s.send_time = rs.number("send_time", 0.0);
      s.lost = rs.boolean("lost", false);
      s.deliver_time = rs.number("deliver_time", 0.0);
      s.dst_automaton = rs.uinteger("dst_automaton", 0);
      s.root = rs.string("root", "");
      rs.finish();
      cx.sends.push_back(std::move(s));
    }
  }
  if (const util::Json* narr = r.optional("narrative"))
    for (const util::Json& line : narr->as_array()) cx.narrative.push_back(line.as_string());
  r.finish();
  return cx;
}

VerifyResult verify_pte(const CompiledModel& model, const VerifyOptions& options) {
  Checker checker(model, options);
  return checker.run();
}

}  // namespace ptecps::verify
