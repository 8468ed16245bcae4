#include "atpg/podem.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <span>
#include <utility>

namespace fastmon {

namespace {

// Ternary logic values.
constexpr std::uint8_t T0 = 0;
constexpr std::uint8_t T1 = 1;
constexpr std::uint8_t TX = 2;

/// Five-valued signal as a (good, faulty) ternary pair:
/// D = (1,0), D-bar = (0,1), X = (X,X).
struct V5 {
    std::uint8_t good = TX;
    std::uint8_t faulty = TX;

    [[nodiscard]] bool is_d() const {
        return good != TX && faulty != TX && good != faulty;
    }
    friend bool operator==(const V5&, const V5&) = default;
};

std::uint8_t t_not(std::uint8_t v) {
    return v == TX ? TX : (v == T1 ? T0 : T1);
}

std::uint8_t t_and(std::uint8_t a, std::uint8_t b) {
    if (a == T0 || b == T0) return T0;
    if (a == T1 && b == T1) return T1;
    return TX;
}

std::uint8_t t_or(std::uint8_t a, std::uint8_t b) {
    if (a == T1 || b == T1) return T1;
    if (a == T0 && b == T0) return T0;
    return TX;
}

std::uint8_t t_xor(std::uint8_t a, std::uint8_t b) {
    if (a == TX || b == TX) return TX;
    return a == b ? T0 : T1;
}

/// Ternary (three-valued) gate evaluation with controlling values.
std::uint8_t ternary_eval(CellType type, std::span<const std::uint8_t> ins) {
    switch (type) {
        case CellType::Buf:
        case CellType::Output:
            return ins[0];
        case CellType::Inv:
            return t_not(ins[0]);
        case CellType::And:
        case CellType::Nand: {
            std::uint8_t acc = T1;
            for (std::uint8_t v : ins) acc = t_and(acc, v);
            return type == CellType::And ? acc : t_not(acc);
        }
        case CellType::Or:
        case CellType::Nor: {
            std::uint8_t acc = T0;
            for (std::uint8_t v : ins) acc = t_or(acc, v);
            return type == CellType::Or ? acc : t_not(acc);
        }
        case CellType::Xor:
        case CellType::Xnor: {
            std::uint8_t acc = T0;
            for (std::uint8_t v : ins) acc = t_xor(acc, v);
            return type == CellType::Xor ? acc : t_not(acc);
        }
        case CellType::Mux2: {
            if (ins[0] == T0) return ins[1];
            if (ins[0] == T1) return ins[2];
            // Select unknown: defined only if both data inputs agree.
            return (ins[1] == ins[2] && ins[1] != TX) ? ins[1] : TX;
        }
        case CellType::Aoi21:
            return t_not(t_or(t_and(ins[0], ins[1]), ins[2]));
        case CellType::Oai21:
            return t_not(t_and(t_or(ins[0], ins[1]), ins[2]));
        default:
            return TX;
    }
}

/// Does this cell type invert the chosen input on a sensitized path?
/// (Heuristic for backtrace; correctness is preserved by backtracking.)
bool inverting(CellType type) {
    switch (type) {
        case CellType::Inv:
        case CellType::Nand:
        case CellType::Nor:
        case CellType::Xnor:
        case CellType::Aoi21:
        case CellType::Oai21:
            return true;
        default:
            return false;
    }
}

/// Non-controlling input value used to sensitize a gate (heuristic).
bool noncontrolling(CellType type) {
    switch (type) {
        case CellType::And:
        case CellType::Nand:
            return true;
        case CellType::Or:
        case CellType::Nor:
            return false;
        default:
            return false;
    }
}

struct Objective {
    GateId signal = kNoGate;
    bool value = false;
};

}  // namespace

struct PodemEngine {
    static constexpr std::uint32_t kNone =
        std::numeric_limits<std::uint32_t>::max();

    const Netlist& nl;
    const FaultSite site;
    const bool stuck_value;
    const bool propagate;  ///< false for pure justification
    const std::size_t backtrack_limit;
    const std::span<const std::uint32_t> arc_offset;
    const std::span<const GateId> arc_driver;
    const std::vector<GateId>& site_cone;

    std::vector<V5> values;
    std::vector<Bit> source_vals;      // only meaningful where source_set
    std::vector<bool> source_set;
    std::size_t backtracks = 0;
    std::uint64_t implied_gates = 0;

    /// Implication queue: gates whose fanin changed, bucketed by logic
    /// level so each is evaluated once, after all its changed fanins.
    std::vector<std::vector<GateId>> level_queue;
    std::vector<std::uint8_t> queued;
    std::uint32_t queue_lo = kNone;
    std::uint32_t queue_hi = 0;

    /// Gates whose value carries a fault effect (D or D-bar), unordered;
    /// d_slot[id] is the position of `id` in d_gates, or kNone.
    std::vector<GateId> d_gates;
    std::vector<std::uint32_t> d_slot;

    /// Undo trail: (gate, old value) of every value change, in order.
    std::vector<std::pair<GateId, V5>> trail;

    /// Site-cone signals that drive an observation point: the only
    /// places a fault effect can be observed.
    std::vector<GateId> observed_signals;

    /// X-path memo, valid for entries stamped with the current epoch.
    std::vector<std::int8_t> reach;
    std::vector<std::uint32_t> reach_stamp;
    std::uint32_t reach_epoch = 0;
    struct Frame {
        GateId id;
        std::uint32_t next;  ///< next fanout to examine
    };
    std::vector<Frame> dfs;
    std::vector<GateId> frontier;

    PodemEngine(const Netlist& netlist, const FaultSite& s, bool sv,
                bool prop, std::size_t limit)
        : nl(netlist),
          site(s),
          stuck_value(sv),
          propagate(prop),
          backtrack_limit(limit),
          arc_offset(netlist.arc_offsets()),
          arc_driver(netlist.arc_drivers()),
          site_cone(netlist.fanout_cone(s.gate)),
          values(netlist.size()),
          source_vals(netlist.comb_sources().size(), 0),
          source_set(netlist.comb_sources().size(), false),
          level_queue(netlist.depth() + 1),
          queued(netlist.size(), 0),
          d_slot(netlist.size(), kNone),
          reach(netlist.size(), 0),
          reach_stamp(netlist.size(), 0) {
        if (!propagate) return;
        for (GateId id : site_cone) {
            for (GateId out : nl.gate(id).fanout) {
                if (is_observe_node(nl.gate(out).type)) {
                    observed_signals.push_back(id);
                    break;
                }
            }
        }
    }

    [[nodiscard]] static bool is_observe_node(CellType type) {
        return type == CellType::Output || type == CellType::Dff;
    }

    [[nodiscard]] std::span<const GateId> fanins(GateId id) const {
        return arc_driver.subspan(arc_offset[id],
                                  arc_offset[id + 1] - arc_offset[id]);
    }

    /// Signal whose good value must become !stuck_value to activate.
    [[nodiscard]] GateId faulted_line_driver() const {
        return fault_site_signal(nl, site);
    }

    /// Recomputes the value of one non-source node from its fanins,
    /// applying the fault injection at the site.
    void eval_node(GateId id) {
        const CellType type = nl.gate(id).type;
        const std::span<const GateId> in = fanins(id);
        const auto arity = static_cast<std::uint32_t>(in.size());
        std::uint8_t gin[8];
        std::uint8_t fin[8];
        for (std::uint32_t p = 0; p < arity; ++p) {
            gin[p] = values[in[p]].good;
            fin[p] = values[in[p]].faulty;
        }
        // Branch fault injection: the faulty circuit sees the stuck
        // value on this one pin.
        if (propagate && id == site.gate &&
            site.pin != FaultSite::kOutputPin) {
            fin[site.pin] = stuck_value ? T1 : T0;
        }
        V5 v;
        if (type == CellType::Output) {
            v = V5{gin[0], fin[0]};
        } else {
            v.good = ternary_eval(type,
                                  std::span<const std::uint8_t>(gin, arity));
            // Outside the fault effect both sides see the same inputs.
            v.faulty = std::equal(gin, gin + arity, fin)
                           ? v.good
                           : ternary_eval(type, std::span<const std::uint8_t>(
                                                    fin, arity));
        }
        // Stem fault injection at the gate output.
        if (propagate && id == site.gate &&
            site.pin == FaultSite::kOutputPin) {
            v.faulty = stuck_value ? T1 : T0;
        }
        values[id] = v;
    }

    [[nodiscard]] V5 source_value(std::uint32_t src) const {
        const std::uint8_t v =
            source_set[src] ? (source_vals[src] != 0 ? T1 : T0) : TX;
        return V5{v, v};
    }

    /// Queues a non-source gate for re-evaluation (once).
    void schedule(GateId id) {
        if (nl.source_index(id) != kNone || queued[id] != 0) return;
        queued[id] = 1;
        const std::uint32_t lvl = nl.level(id);
        level_queue[lvl].push_back(id);
        queue_lo = std::min(queue_lo, lvl);
        queue_hi = std::max(queue_hi, lvl);
    }

    void schedule_fanout(GateId id) {
        for (GateId out : nl.gate(id).fanout) schedule(out);
    }

    /// Evaluates queued gates level by level; a gate whose value holds
    /// stops the event there.  A gate's fanouts sit on higher levels, so
    /// each gate is evaluated once, after all its changed fanins.
    void propagate_events() {
        for (std::uint32_t lvl = queue_lo; lvl <= queue_hi; ++lvl) {
            std::vector<GateId>& bucket = level_queue[lvl];
            for (GateId id : bucket) {
                queued[id] = 0;
                ++implied_gates;
                const V5 old = values[id];
                eval_node(id);
                const V5 now = values[id];
                if (now == old) continue;
                trail.emplace_back(id, old);
                if (old.is_d() != now.is_d()) track_d(id, now.is_d());
                schedule_fanout(id);
            }
            bucket.clear();
        }
        queue_lo = kNone;
        queue_hi = 0;
    }

    void track_d(GateId id, bool carries) {
        if (carries) {
            d_slot[id] = static_cast<std::uint32_t>(d_gates.size());
            d_gates.push_back(id);
            return;
        }
        const GateId last = d_gates.back();
        d_gates[d_slot[id]] = last;
        d_slot[last] = d_slot[id];
        d_gates.pop_back();
        d_slot[id] = kNone;
    }

    /// Initial implication with every source at X.  A gate whose fanins
    /// are all X (good and faulty) evaluates to X, so only the fault
    /// injection at the site can produce a known value; implication
    /// starts there.
    void imply() {
        if (!propagate || nl.source_index(site.gate) != kNone) return;
        schedule(site.gate);
        propagate_events();
    }

    /// Implication after assigning one source: only gates whose fanin
    /// changed are re-evaluated.
    void imply_from(std::uint32_t src) {
        const GateId id = nl.comb_sources()[src];
        const V5 v = source_value(src);
        if (values[id] == v) return;
        trail.emplace_back(id, values[id]);
        values[id] = v;
        schedule_fanout(id);
        propagate_events();
    }

    /// Restores every value changed since the trail had `mark` entries.
    /// Values are a function of the source assignment, so this is the
    /// state implication produced before those changes.
    void undo_to(std::size_t mark) {
        while (trail.size() > mark) {
            const auto [id, old] = trail.back();
            trail.pop_back();
            if (old.is_d() != values[id].is_d()) track_d(id, old.is_d());
            values[id] = old;
        }
    }

    [[nodiscard]] bool effect_at_output() const {
        for (GateId s : observed_signals) {
            if (values[s].is_d()) return true;
        }
        return false;
    }

    /// True once the fault is activated (good side of the faulted line
    /// at the non-stuck value).
    [[nodiscard]] std::uint8_t line_good_value() const {
        return values[faulted_line_driver()].good;
    }

    [[nodiscard]] static bool open(const V5& v) {
        return v.good == TX || v.faulty == TX;
    }

    /// X-path check: can a change at `from` (a site-cone node) still
    /// reach an observation point through X-valued signals?  A
    /// depth-first search over the site cone, memoized per objective
    /// (new_x_path_epoch): a node reaches if it is an observation point,
    /// feeds one directly, or feeds an X-valued node that reaches.
    [[nodiscard]] bool x_path(GateId from) {
        dfs.push_back(Frame{from, 0});
        while (!dfs.empty()) {
            const GateId id = dfs.back().id;
            std::uint32_t next = dfs.back().next;
            const std::vector<GateId>& fo = nl.gate(id).fanout;
            bool found = is_observe_node(nl.gate(id).type);
            bool descend = false;
            for (; !found && next < fo.size(); ++next) {
                const GateId out = fo[next];
                if (is_observe_node(nl.gate(out).type)) {
                    found = true;
                } else if (open(values[out])) {
                    if (reach_stamp[out] != reach_epoch) {
                        descend = true;
                        break;
                    }
                    found = reach[out] != 0;
                }
            }
            if (descend) {
                dfs.back().next = next;
                dfs.push_back(Frame{fo[next], 0});
                continue;
            }
            reach[id] = found ? 1 : 0;
            reach_stamp[id] = reach_epoch;
            dfs.pop_back();
        }
        return reach[from] != 0;
    }

    void new_x_path_epoch() {
        if (++reach_epoch == 0) {  // wrapped: every stamp is stale
            std::fill(reach_stamp.begin(), reach_stamp.end(), 0);
            reach_epoch = 1;
        }
    }

    [[nodiscard]] std::optional<Objective> next_objective() {
        const std::uint8_t lv = line_good_value();
        const std::uint8_t want = stuck_value ? T0 : T1;
        if (lv == TX) {
            return Objective{faulted_line_driver(), want == T1};
        }
        if (lv != want) return std::nullopt;  // activation conflict
        if (!propagate) return std::nullopt;  // justification done/failed
        // D-frontier: X-output gates with a D on some input; pick the
        // shallowest one (first in topological order on a tie) that
        // still has an X-path to an observation point.  The faulted
        // gate's injected branch D is not visible in values[]; it is a
        // frontier member once activated.
        frontier.clear();
        auto consider = [&](GateId id) {
            if (is_combinational(nl.gate(id).type) && open(values[id])) {
                frontier.push_back(id);
            }
        };
        for (GateId d : d_gates) {
            for (GateId out : nl.gate(d).fanout) consider(out);
        }
        if (site.pin != FaultSite::kOutputPin) consider(site.gate);
        auto order = [this](GateId a, GateId b) {
            return std::pair(nl.level(a), nl.topo_rank(a)) <
                   std::pair(nl.level(b), nl.topo_rank(b));
        };
        std::sort(frontier.begin(), frontier.end(), order);
        new_x_path_epoch();
        GateId best = kNoGate;
        for (GateId id : frontier) {
            if (x_path(id)) {
                best = id;
                break;
            }
        }
        if (best == kNoGate) return std::nullopt;
        const CellType type = nl.gate(best).type;
        for (GateId f : fanins(best)) {
            if (values[f].good == TX) {
                return Objective{f, noncontrolling(type)};
            }
        }
        return std::nullopt;
    }

    /// X-valued fanin with extreme logic level: `hardest` selects the
    /// deepest (to satisfy all-inputs objectives early), otherwise the
    /// shallowest (easiest single-input objective).
    [[nodiscard]] GateId pick_x_fanin(GateId id, bool hardest) const {
        GateId pick = kNoGate;
        for (GateId f : fanins(id)) {
            if (values[f].good != TX) continue;
            if (pick == kNoGate ||
                (hardest ? nl.level(f) > nl.level(pick)
                         : nl.level(f) < nl.level(pick))) {
                pick = f;
            }
        }
        return pick;
    }

    /// Maps an objective to a source assignment through X-valued lines
    /// using the classic goal-directed heuristic: descend into the
    /// easiest input when any controlling value suffices, the hardest
    /// when all inputs must be non-controlling.
    [[nodiscard]] std::optional<std::pair<std::uint32_t, bool>> backtrace(
        Objective obj) const {
        GateId s = obj.signal;
        bool v = obj.value;
        for (std::size_t guard = 0; guard < nl.size() + 1; ++guard) {
            const std::uint32_t src = nl.source_index(s);
            if (src != kNone) {
                if (source_set[src]) return std::nullopt;
                return std::make_pair(src, v);
            }
            const CellType type = nl.gate(s).type;
            const std::span<const GateId> in = fanins(s);
            GateId next = kNoGate;
            bool next_v = v;
            switch (type) {
                case CellType::And:
                case CellType::Nand: {
                    const bool out_and = type == CellType::And ? v : !v;
                    // 1: all inputs 1 (hardest first); 0: any input 0.
                    next = pick_x_fanin(s, out_and);
                    next_v = out_and;
                    break;
                }
                case CellType::Or:
                case CellType::Nor: {
                    const bool out_or = type == CellType::Or ? v : !v;
                    // 1: any input 1 (easiest); 0: all inputs 0.
                    next = pick_x_fanin(s, !out_or);
                    next_v = out_or;
                    break;
                }
                case CellType::Inv:
                    next = values[in[0]].good == TX ? in[0] : kNoGate;
                    next_v = !v;
                    break;
                case CellType::Buf:
                case CellType::Output:
                    next = values[in[0]].good == TX ? in[0] : kNoGate;
                    break;
                case CellType::Xor:
                case CellType::Xnor: {
                    // Choose an X input; if it is the only X, its value
                    // is determined by the parity of the known inputs.
                    next = pick_x_fanin(s, false);
                    if (next == kNoGate) break;
                    bool parity = type == CellType::Xnor ? !v : v;
                    std::size_t n_x = 0;
                    for (GateId f : in) {
                        if (values[f].good == TX) {
                            ++n_x;
                        } else if (values[f].good == T1) {
                            parity = !parity;
                        }
                    }
                    next_v = n_x == 1 ? parity : v;
                    break;
                }
                case CellType::Mux2: {
                    // Select known: descend the selected data input.
                    if (values[in[0]].good == T0 &&
                        values[in[1]].good == TX) {
                        next = in[1];
                    } else if (values[in[0]].good == T1 &&
                               values[in[2]].good == TX) {
                        next = in[2];
                    } else {
                        next = pick_x_fanin(s, false);
                    }
                    break;
                }
                default:
                    // AOI/OAI: heuristic descent with inversion.
                    next = pick_x_fanin(s, false);
                    next_v = inverting(type) ? !v : v;
                    break;
            }
            if (next == kNoGate) return std::nullopt;
            v = next_v;
            s = next;
        }
        return std::nullopt;
    }

    [[nodiscard]] PodemStatus run() {
        struct Decision {
            std::uint32_t src;
            bool tried_both;
            std::size_t mark;  ///< trail size before the decision
        };
        std::vector<Decision> stack;
        imply();

        for (;;) {
            // Success?
            if (propagate) {
                if (effect_at_output()) return PodemStatus::Success;
            } else {
                const std::uint8_t lv = line_good_value();
                const std::uint8_t want = stuck_value ? T0 : T1;
                if (lv == want) return PodemStatus::Success;
            }

            const auto obj = next_objective();
            std::optional<std::pair<std::uint32_t, bool>> assign;
            if (obj) assign = backtrace(*obj);

            if (assign) {
                source_set[assign->first] = true;
                source_vals[assign->first] = assign->second ? 1 : 0;
                stack.push_back(Decision{assign->first, false, trail.size()});
                imply_from(assign->first);
                continue;
            }

            // Dead end: backtrack.  A flip or a pop first restores the
            // values from before the decision instead of re-implying them.
            for (;;) {
                if (stack.empty()) return PodemStatus::Untestable;
                if (++backtracks > backtrack_limit) {
                    return PodemStatus::Aborted;
                }
                Decision& d = stack.back();
                if (!d.tried_both) {
                    d.tried_both = true;
                    source_vals[d.src] ^= 1;
                    undo_to(d.mark);
                    imply_from(d.src);
                    break;
                }
                source_set[d.src] = false;
                undo_to(d.mark);
                stack.pop_back();
            }
        }
    }
};

Podem::Podem(const Netlist& netlist, std::size_t backtrack_limit)
    : netlist_(&netlist), backtrack_limit_(backtrack_limit) {}

namespace {

PodemResult finish(const PodemEngine& engine, PodemStatus status) {
    PodemResult r;
    r.status = status;
    r.backtracks = engine.backtracks;
    r.implied_gates = engine.implied_gates;
    r.vector = engine.source_vals;
    r.assigned = engine.source_set;
    return r;
}

}  // namespace

PodemResult Podem::generate_test(const FaultSite& site,
                                 bool stuck_value) const {
    PodemEngine engine(*netlist_, site, stuck_value, true, backtrack_limit_);
    const PodemStatus status = engine.run();
    return finish(engine, status);
}

PodemResult Podem::justify(const FaultSite& site, bool value) const {
    // Justification of "line = value" is PODEM for stuck-at !value with
    // the propagation requirement dropped.
    PodemEngine engine(*netlist_, site, !value, false, backtrack_limit_);
    const PodemStatus status = engine.run();
    return finish(engine, status);
}

}  // namespace fastmon
