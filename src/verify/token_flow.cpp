#include "verify/token_flow.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/error.h"
#include "dataflow/window_scanner.h"

namespace qnn {

const char* token_verdict_name(TokenVerdict v) {
  switch (v) {
    case TokenVerdict::kFeasible:
      return "feasible";
    case TokenVerdict::kDeadlock:
      return "deadlock";
    case TokenVerdict::kMarginal:
      return "marginal";
    case TokenVerdict::kUndecided:
      return "undecided";
  }
  return "?";
}

std::vector<std::int64_t> window_breakpoints(const Node& n) {
  // The kernel's own cursor, driven a run at a time: whole rows of real
  // values and whole padding runs, exactly the runs the kernel may see.
  WindowScanner sc(n.in, n.k, n.stride, n.pad);
  std::vector<std::int64_t> bp;
  bp.reserve(static_cast<std::size_t>(sc.out_h()) *
             static_cast<std::size_t>(sc.out_w()));
  while (!sc.done()) {
    (void)sc.advance_run(n.in.elems(),
                         [&bp](const WindowScanner::Completed& at) {
                           bp.push_back(at.consumed);
                         });
  }
  return bp;
}

namespace {

/// One planned stream as a marked-graph place. `cap` is the effective
/// capacity: the planned ring in the tight model, plus the adjacent burst
/// buffers in the slack model (a chain FIFO -> InBurst -> OutStage moves
/// indistinguishable tokens, so for feasibility it is one place of the
/// summed capacity).
struct Place {
  std::int64_t cap = 0;
  std::int64_t q = 0;
  bool is_output = false;  // drained by the host collector: never full

  [[nodiscard]] std::int64_t space() const {
    return is_output ? std::numeric_limits<std::int64_t>::max() : cap - q;
  }
};

/// Exact consume->emit profile of a window kernel (window_breakpoints).
struct WindowProfile {
  std::vector<std::int64_t> breakpoints;
  std::int64_t per_window = 0;  // values emitted per completed window

  /// Max values emitted across any span of `burst` consecutive
  /// consumptions — the most the implementation ever holds staged.
  [[nodiscard]] std::int64_t max_stage(std::int64_t burst) const {
    std::int64_t best = 0;
    std::size_t lo = 0;
    for (std::size_t hi = 0; hi < breakpoints.size(); ++hi) {
      while (breakpoints[hi] - breakpoints[lo] > burst) ++lo;
      best = std::max(best, static_cast<std::int64_t>(hi - lo + 1));
    }
    return best * per_window;
  }
};

/// The in-burst capacity a window kernel actually allocates
/// (dataflow/kernels.cpp window_burst): at least one input row.
std::int64_t window_burst_of(const Node& n, std::int64_t planned) {
  const auto row =
      static_cast<std::int64_t>(n.in.w) * static_cast<std::int64_t>(n.in.c);
  return std::max({planned, row, std::int64_t{1}});
}

struct Transition {
  enum class Kind { kSource, kWindow, kElementwise, kAdd, kFork };
  Kind kind = Kind::kElementwise;
  std::string name;
  int in = -1;    // place index (main port)
  int skip = -1;  // place index (Add only)
  int out = -1;   // place index (kFork uses `outs` instead)
  std::vector<int> outs;

  std::int64_t total = 0;     // values consumed per full run (main port)
  std::int64_t consumed = 0;  // main-port values consumed so far

  // kWindow only.
  const WindowProfile* profile = nullptr;
  std::int64_t elems = 0;   // real values per image
  std::int64_t c = 0;       // consumed within the current image
  std::size_t widx = 0;     // next breakpoint
  std::int64_t staged = 0;  // emitted values awaiting output space
  int img = 0;

  [[nodiscard]] bool done(int images) const {
    if (kind == Kind::kWindow) return img >= images;
    return consumed >= total;
  }
};

class Simulation {
 public:
  Simulation(const Pipeline& p, const FifoPlan& plan, int images,
             bool with_slack)
      : images_(images) {
    const int n = p.size();
    std::vector<int> main_in(static_cast<std::size_t>(n), -1);
    std::vector<int> skip_in(static_cast<std::size_t>(n), -1);

    places_.resize(plan.streams.size());
    for (std::size_t e = 0; e < plan.streams.size(); ++e) {
      const PlannedStream& ps = plan.streams[e];
      places_[e].cap = static_cast<std::int64_t>(ps.capacity);
      places_[e].is_output = ps.role == PlannedStream::Role::kOutput;
      if (ps.consumer >= 0) {
        (ps.to_skip_port ? skip_in : main_in)[static_cast<std::size_t>(
            ps.consumer)] = static_cast<int>(e);
      }
    }

    // Burst slack, counted only in the refutation model: each consumer
    // port drains its FIFO one burst early (InBurst) and each producer
    // stages up to one refill's responses past a full ring (OutStage).
    // Both sit in series with the planned ring, so they widen the places
    // they touch.
    auto in_slack = [&](const PlannedStream& ps) -> std::int64_t {
      if (!with_slack || ps.consumer < 0) return 0;
      const Node& node = p.node(ps.consumer);
      const auto b = static_cast<std::int64_t>(ps.burst);
      return node.is_window_op() ? window_burst_of(node, b) : b;
    };
    for (std::size_t e = 0; e < plan.streams.size(); ++e) {
      places_[e].cap += in_slack(plan.streams[e]);
    }

    // One transition per pipeline node, matching dataflow/kernels.cpp.
    for (int i = 0; i < n; ++i) {
      const Node& node = p.node(i);
      Transition t;
      t.name = node.name;
      t.in = main_in[static_cast<std::size_t>(i)];
      QNN_CHECK(t.in >= 0, "token flow: node without a planned input edge");
      t.total = static_cast<std::int64_t>(node.in.elems()) * images_;
      if (node.is_window_op()) {
        t.kind = Transition::Kind::kWindow;
        profiles_.push_back(
            {window_breakpoints(node),
             node.kind == NodeKind::Conv ? node.out.c : node.in.c});
        t.elems = node.in.elems();
      } else if (node.kind == NodeKind::Add) {
        t.kind = Transition::Kind::kAdd;
        t.skip = skip_in[static_cast<std::size_t>(i)];
        QNN_CHECK(t.skip >= 0, "token flow: Add without a planned skip edge");
      } else {
        t.kind = Transition::Kind::kElementwise;
      }
      transitions_.push_back(std::move(t));
    }
    // Profile pointers are taken only after profiles_ stops growing.
    for (std::size_t i = 0, w = 0; i < transitions_.size(); ++i) {
      if (transitions_[i].kind == Transition::Kind::kWindow) {
        transitions_[i].profile = &profiles_[w++];
      }
    }

    // Producer-side wiring: node/source output edges and fork transitions.
    auto wire_producer = [&](int producer, const std::string& pname) {
      int trunk = -1;
      std::vector<int> branches;
      std::int64_t out_elems = 0;
      for (std::size_t e = 0; e < plan.streams.size(); ++e) {
        const PlannedStream& ps = plan.streams[e];
        if (ps.producer != producer) continue;
        switch (ps.role) {
          case PlannedStream::Role::kTrunk:
            trunk = static_cast<int>(e);
            break;
          case PlannedStream::Role::kBranch:
            branches.push_back(static_cast<int>(e));
            break;
          case PlannedStream::Role::kDirect:
          case PlannedStream::Role::kOutput:
            trunk = static_cast<int>(e);
            break;
        }
      }
      QNN_CHECK(trunk >= 0, "token flow: producer without a planned stream");
      if (producer < 0) {
        Transition src;
        src.kind = Transition::Kind::kSource;
        src.name = "input";
        src.out = trunk;
        src.total = static_cast<std::int64_t>(p.input.elems()) * images_;
        out_elems = src.total;
        transitions_.push_back(std::move(src));
      } else {
        transitions_[static_cast<std::size_t>(producer)].out = trunk;
        out_elems =
            static_cast<std::int64_t>(p.node(producer).out.elems()) * images_;
      }
      if (!branches.empty()) {
        Transition fork;
        fork.kind = Transition::Kind::kFork;
        fork.name = pname + "->fork";
        fork.in = trunk;
        fork.outs = branches;
        fork.total = out_elems;
        // The fork's pop buffer drains the trunk one burst early and holds
        // values each branch has not yet accepted.
        if (with_slack) {
          const auto b = static_cast<std::int64_t>(
              plan.streams[static_cast<std::size_t>(trunk)].burst);
          places_[static_cast<std::size_t>(trunk)].cap += b;
          for (const int br : branches) {
            places_[static_cast<std::size_t>(br)].cap += b;
          }
        }
        transitions_.push_back(std::move(fork));
      }
    };
    wire_producer(-1, "input");
    for (int i = 0; i < n; ++i) wire_producer(i, p.node(i).name);

    if (with_slack) {
      // Producer-side OutStage slack (window kernels compute it from the
      // scan geometry; BnAct/Add stage at most one refill).
      for (const Transition& t : transitions_) {
        if (t.out < 0) continue;
        Place& out = places_[static_cast<std::size_t>(t.out)];
        switch (t.kind) {
          case Transition::Kind::kWindow: {
            const auto b = static_cast<std::int64_t>(
                plan.streams[static_cast<std::size_t>(t.in)].burst);
            out.cap += t.profile->max_stage(
                window_burst_of(p.node(node_index(t)), b));
            break;
          }
          case Transition::Kind::kElementwise:
            out.cap += static_cast<std::int64_t>(
                plan.streams[static_cast<std::size_t>(t.in)].burst);
            break;
          case Transition::Kind::kAdd:
            out.cap += std::min(
                static_cast<std::int64_t>(
                    plan.streams[static_cast<std::size_t>(t.in)].burst),
                static_cast<std::int64_t>(
                    plan.streams[static_cast<std::size_t>(t.skip)].burst));
            break;
          case Transition::Kind::kSource:
          case Transition::Kind::kFork:
            break;  // feeder/fork stage handled above
        }
      }
    }
    plan_ = &plan;
  }

  /// Greedy maximal-progress run. Returns kFeasible / kDeadlock /
  /// kUndecided (budget); the marginal verdict is composed by the caller.
  TokenVerdict run(const TokenFlowBudget& budget, std::int64_t* tokens_out) {
    std::int64_t tokens = 0;
    std::int64_t sweeps = 0;
    bool moved = true;
    while (moved) {
      if (++sweeps > budget.max_sweeps || tokens > budget.max_tokens) {
        *tokens_out = tokens;
        return TokenVerdict::kUndecided;
      }
      moved = false;
      for (Transition& t : transitions_) moved |= fire(t, tokens);
      // The host collector drains terminal streams continuously.
      for (Place& pl : places_) {
        if (pl.is_output) pl.q = 0;
      }
    }
    *tokens_out = tokens;
    for (const Transition& t : transitions_) {
      if (!t.done(images_)) return TokenVerdict::kDeadlock;
    }
    return TokenVerdict::kFeasible;
  }

  /// Quiescent marking: every unfinished transition with the port it is
  /// starved or jammed on.
  [[nodiscard]] std::string witness() const {
    std::string w;
    for (const Transition& t : transitions_) {
      if (t.done(images_)) continue;
      if (!w.empty()) w += "; ";
      w += t.name + " blocked on ";
      std::string why;
      auto starved = [&](int e, const char* port) {
        if (e >= 0 && places_[static_cast<std::size_t>(e)].q == 0) {
          if (!why.empty()) why += " + ";
          why += std::string(port) + " '" +
                 plan_->streams[static_cast<std::size_t>(e)].name + "' empty";
        }
      };
      auto jammed = [&](int e) {
        if (e >= 0 && places_[static_cast<std::size_t>(e)].space() == 0) {
          const PlannedStream& ps = plan_->streams[static_cast<std::size_t>(e)];
          if (!why.empty()) why += " + ";
          why += "'" + ps.name + "' full (" + std::to_string(ps.capacity) +
                 " values)";
        }
      };
      if (t.kind != Transition::Kind::kSource) starved(t.in, "input");
      starved(t.skip, "skip input");
      jammed(t.out);
      for (const int e : t.outs) jammed(e);
      w += why.empty() ? std::string("internal stage") : why;
    }
    return w;
  }

 private:
  [[nodiscard]] int node_index(const Transition& t) const {
    return static_cast<int>(&t - transitions_.data());
  }

  bool fire(Transition& t, std::int64_t& tokens) {
    switch (t.kind) {
      case Transition::Kind::kSource: {
        Place& out = places_[static_cast<std::size_t>(t.out)];
        const std::int64_t k =
            std::min(t.total - t.consumed, out.space());
        if (k <= 0) return false;
        out.q += k;
        t.consumed += k;
        tokens += k;
        return true;
      }
      case Transition::Kind::kElementwise: {
        Place& in = places_[static_cast<std::size_t>(t.in)];
        Place& out = places_[static_cast<std::size_t>(t.out)];
        const std::int64_t k =
            std::min({in.q, out.space(), t.total - t.consumed});
        if (k <= 0) return false;
        in.q -= k;
        out.q += k;
        t.consumed += k;
        tokens += k;
        return true;
      }
      case Transition::Kind::kAdd: {
        Place& a = places_[static_cast<std::size_t>(t.in)];
        Place& b = places_[static_cast<std::size_t>(t.skip)];
        Place& out = places_[static_cast<std::size_t>(t.out)];
        const std::int64_t k =
            std::min({a.q, b.q, out.space(), t.total - t.consumed});
        if (k <= 0) return false;
        a.q -= k;
        b.q -= k;
        out.q += k;
        t.consumed += k;
        tokens += k;
        return true;
      }
      case Transition::Kind::kFork: {
        Place& in = places_[static_cast<std::size_t>(t.in)];
        std::int64_t k = std::min(in.q, t.total - t.consumed);
        for (const int e : t.outs) {
          k = std::min(k, places_[static_cast<std::size_t>(e)].space());
        }
        if (k <= 0) return false;
        in.q -= k;
        for (const int e : t.outs) places_[static_cast<std::size_t>(e)].q += k;
        t.consumed += k;
        tokens += k;
        return true;
      }
      case Transition::Kind::kWindow:
        return fire_window(t, tokens);
    }
    return false;
  }

  bool fire_window(Transition& t, std::int64_t& tokens) {
    Place& in = places_[static_cast<std::size_t>(t.in)];
    Place& out = places_[static_cast<std::size_t>(t.out)];
    const std::vector<std::int64_t>& bp = t.profile->breakpoints;
    bool progressed = false;
    for (;;) {
      // Flush staged responses first: the kernel consumes nothing while
      // its OutStage holds values (dataflow/kernels.cpp step()).
      if (t.staged > 0) {
        const std::int64_t m = std::min(t.staged, out.space());
        if (m > 0) {
          t.staged -= m;
          out.q += m;
          tokens += m;
          progressed = true;
        }
        if (t.staged > 0) return progressed;
      }
      if (t.img >= images_) return progressed;
      // Windows whose bottom-right corner is a padding position complete
      // without consuming input.
      if (t.widx < bp.size() && bp[t.widx] <= t.c) {
        t.staged += t.profile->per_window;
        ++t.widx;
        continue;
      }
      if (t.c == t.elems) {
        // Image complete (all its windows emitted above); re-arm.
        t.c = 0;
        t.widx = 0;
        ++t.img;
        progressed = true;
        continue;
      }
      // Consume up to the value that completes the next window.
      const std::int64_t next = t.widx < bp.size() ? bp[t.widx] : t.elems;
      const std::int64_t k = std::min(in.q, next - t.c);
      if (k <= 0) return progressed;
      in.q -= k;
      t.c += k;
      t.consumed += k;
      tokens += k;
      progressed = true;
    }
  }

  int images_;
  const FifoPlan* plan_ = nullptr;
  std::vector<Place> places_;
  std::vector<Transition> transitions_;
  std::vector<WindowProfile> profiles_;
};

}  // namespace

TokenFlowResult prove_token_flow(const Pipeline& pipeline, const FifoPlan& plan,
                                 const TokenFlowBudget& budget) {
  TokenFlowResult result;

  // Tight model: no burst slack. Completion proves deadlock-freedom for
  // every schedule (real runs only ever have MORE buffering, and growing
  // buffers never creates a deadlock in a Kahn network).
  Simulation tight(pipeline, plan, budget.images, /*with_slack=*/false);
  const TokenVerdict tv = tight.run(budget, &result.tokens_moved);
  if (tv == TokenVerdict::kFeasible || tv == TokenVerdict::kUndecided) {
    result.verdict = tv;
    return result;
  }
  const std::string tight_witness = tight.witness();

  // Slack model: every burst buffer counted at full size. Deadlock here
  // refutes feasibility — no schedule can see more buffering than this.
  Simulation slack(pipeline, plan, budget.images, /*with_slack=*/true);
  const TokenVerdict sv = slack.run(budget, &result.tokens_moved);
  if (sv == TokenVerdict::kDeadlock) {
    result.verdict = TokenVerdict::kDeadlock;
    result.witness = slack.witness();
  } else if (sv == TokenVerdict::kFeasible) {
    result.verdict = TokenVerdict::kMarginal;
    result.witness = tight_witness;
  } else {
    result.verdict = TokenVerdict::kUndecided;
  }
  return result;
}

}  // namespace qnn
