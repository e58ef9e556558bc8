#include "runtime/interpreter.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "cluster/comm_model.h"
#include "common/parallel.h"
#include "core/fill/filler.h"
#include "core/instr/validate.h"
#include "core/partition/partitioner.h"
#include "core/schedule/schedule.h"
#include "profiler/cost_model.h"
#include "profiler/profile_db.h"
#include "runtime/kernels.h"
#include "runtime/pool.h"

namespace dpipe::rt {

namespace {

/// Cross-replica rendezvous realizing kAllReduceGrads: each of `parties`
/// stage tasks registers its arrival once, and the last arriver runs the
/// reduction under the lock, so every replica's accumulated gradients
/// happen-before the reduce and the reduced values happen-before every
/// peer's optimizer step. Tasks poll instead of waiting: the wave
/// scheduler resumes a pending task later. Single-use; abort() makes every
/// later poll report kAborted.
class ReduceBarrier {
 public:
  explicit ReduceBarrier(int parties) : parties_(parties) {}

  enum class TryArrive { kReduced, kPending, kAborted };

  /// `arrived` is the calling task's own registration flag: the first call
  /// registers the arrival, later calls only poll. kReduced means the
  /// reduction has run and the task may proceed; kPending means peers are
  /// still missing. A throwing reduction aborts the barrier.
  template <typename Fn>
  [[nodiscard]] TryArrive try_arrive(bool& arrived, Fn&& reduce) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (aborted_) {
      return TryArrive::kAborted;
    }
    if (!arrived) {
      arrived = true;
      if (++arrived_ == parties_) {
        try {
          reduce();
        } catch (...) {
          aborted_ = true;
          throw;
        }
        done_ = true;
      }
    }
    return done_ ? TryArrive::kReduced : TryArrive::kPending;
  }

  void abort() {
    const std::lock_guard<std::mutex> lock(mutex_);
    aborted_ = true;
  }

 private:
  std::mutex mutex_;
  int parties_;
  int arrived_ = 0;
  bool done_ = false;
  bool aborted_ = false;
};

[[nodiscard]] bool occupies_device(InstrKind kind) {
  return kind == InstrKind::kLoadMicroBatch || kind == InstrKind::kForward ||
         kind == InstrKind::kBackward || kind == InstrKind::kFrozenForward ||
         kind == InstrKind::kOptimizerStep;
}

std::atomic<WaveExec> g_wave_exec{WaveExec::kAuto};

/// The driver of one wave whose largest task is estimated at
/// `max_task_flops`: the set_wave_exec override when one is set, else
/// kAuto's rule over the process pool width (kThreads under
/// ThreadSanitizer).
[[nodiscard]] WaveExec wave_driver(double max_task_flops) {
  const WaveExec forced = wave_exec();
  if (forced != WaveExec::kAuto) {
    return forced;
  }
#if defined(__SANITIZE_THREAD__)
  (void)max_task_flops;
  return WaveExec::kThreads;
#else
  return detail::select_wave_exec(max_task_flops, kernel_threads());
#endif
}

/// Outcome of one wave task's run() call.
enum class TaskStatus { kBlocked, kDone };

/// Runs one wave's tasks to completion and returns each task's error (null
/// if it finished cleanly), indexed like `tasks`. A task provides
/// run() -> TaskStatus, which executes until the task's next channel pop
/// or barrier would block (kBlocked, state kept for the next call) or the
/// task ends (kDone), and made_progress().
///
/// W workers share the tasks: each sweeps them, claims an idle one, runs
/// it and releases it, so a blocked task holds no thread and a per-task
/// state (idle / running / done) gives it one runner at a time. W is 1
/// under kSerial and min(#tasks, pool width) under kThreads. The workers
/// run as one batch on the process pool (W = 1: inline on the caller,
/// the historical round-robin); pool threads are in_parallel_region(), so
/// kernels inside a pooled wave run inline instead of fanning out again.
/// A busy or nested pool runs worker 0 inline, which finishes every task
/// alone: the loop never depends on concurrency. A task's first error
/// aborts the wave through `abort_wave`, so its peers drain out of their
/// pops and barriers; callers choose which recorded error to rethrow.
template <typename Task, typename Abort>
[[nodiscard]] std::vector<std::exception_ptr> run_wave(
    std::vector<Task>& tasks, const Abort& abort_wave,
    double max_task_flops) {
  enum : std::uint8_t { kIdle, kRunning, kDone };
  const std::size_t n = tasks.size();
  std::vector<std::exception_ptr> errors(n);
  std::vector<std::atomic<std::uint8_t>> state(n);  // All kIdle.
  std::atomic<std::size_t> remaining{n};
  std::atomic<std::uint64_t> epoch{0};  ///< Bumped on every task progress.
  std::atomic<bool> deadlocked{false};
  const std::size_t workers =
      wave_driver(max_task_flops) == WaveExec::kThreads ? n : 1;
  parallel_for(workers, [&](std::size_t worker) {
    while (remaining.load() > 0 && !deadlocked.load()) {
      const std::uint64_t epoch_before = epoch.load();
      bool polled_all = true;
      bool progressed = false;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t t = (i + worker) % n;
        std::uint8_t claim = kIdle;
        if (!state[t].compare_exchange_strong(claim, kRunning)) {
          polled_all = polled_all && claim == kDone;
          continue;
        }
        TaskStatus status = TaskStatus::kDone;
        try {
          status = tasks[t].run();
        } catch (...) {
          errors[t] = std::current_exception();
          abort_wave();
        }
        if (status == TaskStatus::kDone) {
          // Count the task out before marking it done: a sweep that skips
          // every done task must then also see remaining == 0.
          remaining.fetch_sub(1);
          epoch.fetch_add(1);
          state[t].store(kDone);
          progressed = true;
        } else {
          if (tasks[t].made_progress()) {
            // Bump before the release: a sweep that claims this task after
            // the release then sees the epoch move.
            epoch.fetch_add(1);
            progressed = true;
          }
          state[t].store(kIdle);
        }
      }
      if (progressed) {
        continue;
      }
      // No task can progress iff this worker polled every unfinished task
      // itself, none is running now, and nothing progressed meanwhile: the
      // program would deadlock under any scheduler. Validated programs
      // never get here.
      const bool none_running =
          std::none_of(state.begin(), state.end(),
                       [](const std::atomic<std::uint8_t>& s) {
                         return s.load() == kRunning;
                       });
      if (polled_all && none_running && epoch.load() == epoch_before &&
          remaining.load() > 0) {
        deadlocked.store(true);
        return;
      }
      std::this_thread::yield();
    }
  });
  DPIPE_ENSURE(!deadlocked.load(),
               "cooperative wave deadlocked: no task can progress");
  return errors;
}

/// Largest parameter-element count any one device owns across its stages:
/// the weight factor of a wave's largest task.
[[nodiscard]] double max_device_params(const ProgramBinding& b,
                                       Sequential& net) {
  double most = 0.0;
  for (int dev = 0; dev < b.program().group_size; ++dev) {
    double params = 0.0;
    for (const int s : b.stages_of_device(dev)) {
      for (int i = b.module_begin(s); i < b.module_end(s); ++i) {
        for (const Tensor* p : net.module(i).params()) {
          params += static_cast<double>(p->numel());
        }
      }
    }
    most = std::max(most, params);
  }
  return most;
}

enum class PopOutcome { kOk, kWouldBlock, kAborted };

/// A wave task's channel receive: polls try_pop() and reports kWouldBlock
/// on an empty open channel. kAborted means the channel was closed and
/// drained.
template <typename T>
[[nodiscard]] PopOutcome pop_from(Channel<T>& ch, T& out) {
  switch (ch.try_pop(out)) {
    case TryPop::kValue:
      return PopOutcome::kOk;
    case TryPop::kEmpty:
      return PopOutcome::kWouldBlock;
    case TryPop::kClosed:
      return PopOutcome::kAborted;
  }
  return PopOutcome::kAborted;  // Unreachable.
}

/// Everything one train_wave's per-(replica, device) tasks share. Owned by
/// train_wave's frame; tasks hold a reference.
struct TrainWave {
  const ProgramBinding& b;
  const DdpmProblem& problem;
  const std::vector<ProgramInterpreter::ReplicaState>& replicas;
  const std::vector<ProgramInterpreter::WaveInputs>& inputs;
  int global_batch;
  int iteration;
  const RtFaultInjection& fault;
  ExecutionLog* log;
  int S;
  int M;
  int G;
  int per_micro;
  std::vector<std::vector<std::vector<Tensor*>>>& stage_params;
  std::vector<std::vector<std::vector<Tensor*>>>& stage_grads;
  std::vector<Channel<Tensor>>& act;
  std::vector<Channel<Tensor>>& grad;
  std::vector<Channel<int>>& cond_gate;
  std::vector<std::unique_ptr<ReduceBarrier>>& barriers;
  std::vector<std::vector<Tensor>>& preds;
};

/// A wave task that never blocks: its first run() call does all its work.
struct OneShotTask {
  std::function<void()> work;

  TaskStatus run() {
    work();
    return TaskStatus::kDone;
  }
  [[nodiscard]] bool made_progress() const { return true; }
};

/// Resumable execution state of one (replica g, device dev) training task —
/// the historical per-thread body with its locals lifted into
/// members and an instruction cursor. One task walks its device's whole
/// instruction stream, dispatching each op onto the owned (virtual) stage
/// it names: per-stage inbox/barrier state is indexed by the stage's slot,
/// so an interleaved device drives V resumable stage machines from one
/// cursor. With one stage per device this is exactly the historical
/// per-(replica, stage) task. The wave scheduler calls run() repeatedly,
/// from whichever worker claims the task: it executes until its next
/// channel pop or barrier would block, returns kBlocked with all state
/// intact, and resumes exactly where it stopped. Suspension points carry
/// no partial arithmetic, so every schedule produces bit-identical
/// tensors.
class DeviceExec {
 public:
  DeviceExec(TrainWave& w, int g, int dev)
      : w_(w),
        g_(g),
        dev_(dev),
        stream_(w.b.program().per_device[dev]),
        in_(w.inputs[g]),
        replica_(w.replicas[g]),
        owned_(w.b.stages_of_device(dev)),
        loaded_(w.M),  // Stage-0 assembled inputs.
        inbox_act_(owned_.size(),
                   std::vector<Tensor>(w.M)),  // Received activations.
        inbox_grad_(owned_.size(),
                    std::vector<Tensor>(w.M)),  // Received gradients.
        local_grads_(w.M),                      // Last stage's loss grads.
        barrier_arrived_(owned_.size(), 0) {}

  /// Executes instructions from the cursor until one would block
  /// (kBlocked) or the stream ends (kDone). Throws on stage failure; an
  /// aborted wave ends the task silently (kDone), same as the historical
  /// early `return`.
  TaskStatus run();

  /// Whether the latest run() call executed at least one instruction (the
  /// wave scheduler's deadlock guard).
  [[nodiscard]] bool made_progress() const { return progressed_; }

 private:
  /// Marks the task finished (aborted wave): the scheduler must not resume
  /// it again.
  TaskStatus finish() {
    ip_ = stream_.size();
    progressed_ = true;
    return TaskStatus::kDone;
  }

  TrainWave& w_;
  int g_;
  int dev_;
  const std::vector<Instruction>& stream_;
  const ProgramInterpreter::WaveInputs& in_;
  const ProgramInterpreter::ReplicaState& replica_;
  const std::vector<int>& owned_;  ///< Stages this device owns, slot order.
  std::vector<Tensor> loaded_;
  std::vector<std::vector<Tensor>> inbox_act_;   ///< [slot][micro].
  std::vector<std::vector<Tensor>> inbox_grad_;  ///< [slot][micro].
  std::vector<Tensor> local_grads_;
  bool gate_passed_ = false;
  int frozen_seen_ = 0;
  std::size_t ip_ = 0;      ///< Next instruction to execute.
  std::size_t logged_ = 0;  ///< Instructions already logged (once each).
  std::vector<char> barrier_arrived_;  ///< [slot].
  bool progressed_ = false;
};

TaskStatus DeviceExec::run() {
  progressed_ = false;
  TensorPool& pool = TensorPool::global();
  while (ip_ < stream_.size()) {
    const Instruction& instr = stream_[ip_];
    if (logged_ <= ip_) {
      // Log on first arrival (a blocked instruction is revisited but must
      // be recorded once, in the order the device reached it).
      logged_ = ip_ + 1;
      if (w_.log != nullptr && g_ == 0 && occupies_device(instr.kind)) {
        (*w_.log)[dev_].push_back(op_signature(instr));
      }
    }
    switch (instr.kind) {
      case InstrKind::kLoadMicroBatch: {
        if (!gate_passed_) {
          int token = 0;
          switch (pop_from(w_.cond_gate[g_], token)) {
            case PopOutcome::kOk:
              break;
            case PopOutcome::kWouldBlock:
              return TaskStatus::kBlocked;
            case PopOutcome::kAborted:
              return finish();  // Wave aborted before the inputs arrived.
          }
          gate_passed_ = true;
        }
        const int m = instr.micro;
        const int lo = m * w_.per_micro;
        const int hi = lo + w_.per_micro;
        const Tensor cond_rows =
            in_.cond->slice_rows(in_.row_offset + lo, in_.row_offset + hi);
        const Tensor sc_rows = in_.self_cond != nullptr
                                   ? in_.self_cond->slice_rows(lo, hi)
                                   : Tensor();
        loaded_[m] = w_.problem.make_input(
            in_.micros[m], cond_rows,
            in_.self_cond != nullptr ? &sc_rows : nullptr);
        break;
      }
      case InstrKind::kRecvActivation: {
        const int s = instr.stage;
        Tensor recv;
        switch (pop_from(w_.act[g_ * w_.S + (s - 1)], recv)) {
          case PopOutcome::kOk:
            inbox_act_[w_.b.slot_of_stage(s)][instr.micro] = std::move(recv);
            break;
          case PopOutcome::kWouldBlock:
            return TaskStatus::kBlocked;
          case PopOutcome::kAborted:
            return finish();  // Peer aborted the wave.
        }
        break;
      }
      case InstrKind::kRecvGradient: {
        const int s = instr.stage;
        Tensor recv;
        switch (pop_from(w_.grad[g_ * w_.S + s], recv)) {
          case PopOutcome::kOk:
            inbox_grad_[w_.b.slot_of_stage(s)][instr.micro] = std::move(recv);
            break;
          case PopOutcome::kWouldBlock:
            return TaskStatus::kBlocked;
          case PopOutcome::kAborted:
            return finish();  // Peer aborted the wave.
        }
        break;
      }
      case InstrKind::kForward: {
        const int s = instr.stage;
        const int slot = w_.b.slot_of_stage(s);
        const int m = instr.micro;
        if (w_.fault.armed() && w_.iteration == w_.fault.iteration &&
            g_ == w_.fault.replica && s == w_.fault.stage &&
            m == w_.fault.micro) {
          throw StageFailure("injected stage failure: iteration " +
                             std::to_string(w_.iteration) + ", stage " +
                             std::to_string(s) + ", micro " +
                             std::to_string(m));
        }
        Tensor x =
            s == 0 ? std::move(loaded_[m]) : std::move(inbox_act_[slot][m]);
        Tensor y = replica_.net->forward_range(
            std::move(x), w_.b.module_begin(s), w_.b.module_end(s));
        if (s == w_.S - 1) {
          local_grads_[m] =
              w_.problem.loss_grad(y, in_.micros[m].noise, w_.global_batch);
          w_.preds[g_][m] = std::move(y);
        } else {
          inbox_act_[slot][m] = std::move(y);  // Outbox until the send.
        }
        break;
      }
      case InstrKind::kSendActivation: {
        const int s = instr.stage;
        if (!w_.act[g_ * w_.S + s].push(std::move(
                inbox_act_[w_.b.slot_of_stage(s)][instr.micro]))) {
          return finish();  // Consumer gone: the wave is being aborted.
        }
        break;
      }
      case InstrKind::kBackward: {
        const int s = instr.stage;
        const int slot = w_.b.slot_of_stage(s);
        const int m = instr.micro;
        Tensor gin = s == w_.S - 1 ? std::move(local_grads_[m])
                                   : std::move(inbox_grad_[slot][m]);
        Tensor gout = replica_.net->backward_range(
            std::move(gin), w_.b.module_begin(s), w_.b.module_end(s));
        if (s == 0) {
          pool.release(std::move(gout));
        } else {
          inbox_grad_[slot][m] = std::move(gout);  // Outbox until the send.
        }
        break;
      }
      case InstrKind::kSendGradient: {
        const int s = instr.stage;
        if (!w_.grad[g_ * w_.S + (s - 1)].push(std::move(
                inbox_grad_[w_.b.slot_of_stage(s)][instr.micro]))) {
          return finish();  // Consumer gone: the wave is being aborted.
        }
        break;
      }
      case InstrKind::kFrozenForward: {
        // One bound slot per covered layer (see ProgramBinding).
        for (int layer = instr.layer_begin; layer < instr.layer_end;
             ++layer) {
          const ProgramBinding::FrozenSlot& slot =
              w_.b.steady_frozen()[dev_][frozen_seen_++];
          if (!slot.produces_cond || in_.next_cond_raw == nullptr ||
              in_.next_cond == nullptr || slot.rows.rows() == 0) {
            continue;  // Modeled compute only.
          }
          const Tensor raw = in_.next_cond_raw->slice_rows(
              in_.row_offset + slot.rows.begin,
              in_.row_offset + slot.rows.end);
          Tensor enc = w_.problem.encode_condition(raw);
          const int cols = enc.cols();
          std::copy(enc.data(), enc.data() + enc.numel(),
                    in_.next_cond->data() +
                        static_cast<std::int64_t>(in_.row_offset +
                                                  slot.rows.begin) *
                            cols);
          pool.release(std::move(enc));
        }
        break;
      }
      case InstrKind::kAllReduceGrads: {
        const int s = instr.stage;
        const auto reduce = [&] {
          // Sum replica gradients (ascending replica order) and broadcast
          // the result — micro gradients are already global-batch
          // normalized, so the sum IS the full-batch gradient.
          for (std::size_t i = 0; i < w_.stage_grads[0][s].size(); ++i) {
            Tensor avg = pool.acquire(w_.stage_grads[0][s][i]->shape());
            std::copy(w_.stage_grads[0][s][i]->data(),
                      w_.stage_grads[0][s][i]->data() + avg.numel(),
                      avg.data());
            for (int r = 1; r < w_.G; ++r) {
              add_inplace(avg, *w_.stage_grads[r][s][i]);
            }
            for (int r = 0; r < w_.G; ++r) {
              std::copy(avg.data(), avg.data() + avg.numel(),
                        w_.stage_grads[r][s][i]->data());
            }
            pool.release(std::move(avg));
          }
        };
        // Registering this task's arrival can complete the barrier for a
        // peer — that counts as progress for the deadlock guard.
        bool arrived = barrier_arrived_[w_.b.slot_of_stage(s)] != 0;
        if (!arrived) {
          progressed_ = true;
        }
        const ReduceBarrier::TryArrive outcome =
            w_.barriers[s]->try_arrive(arrived, reduce);
        barrier_arrived_[w_.b.slot_of_stage(s)] = arrived ? 1 : 0;
        switch (outcome) {
          case ReduceBarrier::TryArrive::kReduced:
            break;
          case ReduceBarrier::TryArrive::kPending:
            return TaskStatus::kBlocked;
          case ReduceBarrier::TryArrive::kAborted:
            return finish();  // Wave aborted while waiting for peers.
        }
        break;
      }
      case InstrKind::kOptimizerStep: {
        const int s = instr.stage;
        if (!replica_.stage_adam.empty()) {
          replica_.stage_adam[s]->step(w_.stage_params[g_][s],
                                       w_.stage_grads[g_][s]);
        } else {
          replica_.sgd->step(w_.stage_params[g_][s], w_.stage_grads[g_][s]);
        }
        for (Tensor* gt : w_.stage_grads[g_][s]) {
          fill(*gt, 0.0f);
        }
        break;
      }
    }
    ++ip_;
    progressed_ = true;
  }
  return TaskStatus::kDone;
}

}  // namespace

const char* wave_exec_name(WaveExec mode) {
  switch (mode) {
    case WaveExec::kAuto:
      return "auto";
    case WaveExec::kThreads:
      return "threads";
    case WaveExec::kSerial:
      return "serial";
  }
  return "?";
}

WaveExec wave_exec() { return g_wave_exec.load(std::memory_order_relaxed); }

void set_wave_exec(WaveExec mode) {
  g_wave_exec.store(mode, std::memory_order_relaxed);
}

WaveExec detail::select_wave_exec(double max_task_flops, int pool_width) {
  return pool_width > 1 && max_task_flops >= kThreadedWaveMinTaskFlops
             ? WaveExec::kThreads
             : WaveExec::kSerial;
}

ProgramBinding::ProgramBinding(const InstructionProgram& program,
                               const Options& opts)
    : program_(program), rows_per_replica_(opts.rows_per_replica) {
  const ValidationReport report =
      ProgramValidator().validate_runtime_bindable(program_);
  if (!report.ok()) {
    throw std::invalid_argument("program is not runtime-bindable:\n" +
                                report.to_string());
  }
  DPIPE_REQUIRE(opts.num_modules >= 1, "need at least one runtime module");
  DPIPE_REQUIRE(opts.rows_per_replica >= 1,
                "rows_per_replica must be positive");

  // Stage ownership cover (each stage owned by exactly one device —
  // guaranteed by validate_runtime_bindable). A device's owned stages are
  // recorded in stream (slot) order; per-stage planner layer ranges come
  // from the first forward op of each stage.
  const int devices = program_.group_size;
  stages_of_device_.assign(devices, {});
  std::map<int, std::pair<int, int>> stage_layers;  // stage -> [begin, end)
  for (int dev = 0; dev < devices; ++dev) {
    for (const Instruction& instr : program_.per_device[dev]) {
      if (instr.kind != InstrKind::kForward) {
        continue;
      }
      if (stage_layers
              .emplace(instr.stage,
                       std::make_pair(instr.layer_begin, instr.layer_end))
              .second) {
        stages_of_device_[dev].push_back(instr.stage);
      }
      num_micros_ = std::max(num_micros_, instr.micro + 1);
    }
    DPIPE_ENSURE(!stages_of_device_[dev].empty(),
                 "device hosts no backbone stage");
  }
  num_stages_ = static_cast<int>(stage_layers.size());
  device_of_stage_.assign(num_stages_, -1);
  slot_of_stage_.assign(num_stages_, 0);
  for (int dev = 0; dev < devices; ++dev) {
    for (std::size_t slot = 0; slot < stages_of_device_[dev].size(); ++slot) {
      const int s = stages_of_device_[dev][slot];
      device_of_stage_[s] = dev;
      slot_of_stage_[s] = static_cast<int>(slot);
    }
  }

  // Map planner layer cuts onto runtime module indices. Proportional and
  // monotone (each stage keeps at least one module); the identity mapping
  // when the planner layer count equals the module count.
  const int planner_layers = stage_layers.at(num_stages_ - 1).second;
  DPIPE_REQUIRE(opts.num_modules >= num_stages_,
                "more pipeline stages than runtime modules");
  module_cut_.assign(num_stages_ + 1, 0);
  module_cut_[num_stages_] = opts.num_modules;
  for (int s = 1; s < num_stages_; ++s) {
    const int begin = stage_layers.at(s).first;
    const int mapped = static_cast<int>(std::llround(
        static_cast<double>(begin) * opts.num_modules / planner_layers));
    module_cut_[s] = std::clamp(mapped, module_cut_[s - 1] + 1,
                                opts.num_modules - (num_stages_ - s));
  }

  // Bind kFrozenForward occurrences to shard rows: per frozen layer
  // identity, the occurrences (canonical order: device ascending, stream
  // order within a device) split [0, rows_per_replica) proportionally to
  // their scheduled samples, with cumulative rounding so the union is an
  // exact disjoint cover.
  struct Occurrence {
    int dev = 0;
    int index = 0;  ///< Occurrence position within the device's slot list.
    double samples = 0.0;
  };
  const auto bind_frozen =
      [&](const std::vector<std::vector<Instruction>>& streams,
          std::vector<std::vector<FrozenSlot>>& slots) {
        slots.assign(streams.size(), {});
        std::map<std::pair<int, int>, std::vector<Occurrence>> groups;
        for (std::size_t dev = 0; dev < streams.size(); ++dev) {
          for (const Instruction& instr : streams[dev]) {
            if (instr.kind != InstrKind::kFrozenForward) {
              continue;
            }
            for (int layer = instr.layer_begin; layer < instr.layer_end;
                 ++layer) {
              FrozenSlot slot;
              slot.component = instr.component;
              slot.layer = layer;
              groups[{instr.component, layer}].push_back(
                  {static_cast<int>(dev),
                   static_cast<int>(slots[dev].size()), instr.samples});
              slots[dev].push_back(slot);
            }
          }
        }
        for (auto& [key, occurrences] : groups) {
          double total = 0.0;
          for (const Occurrence& occ : occurrences) {
            total += occ.samples;
          }
          DPIPE_REQUIRE(total > 0.0,
                        "frozen layer scheduled with zero total samples");
          double cum = 0.0;
          int prev = 0;
          for (const Occurrence& occ : occurrences) {
            cum += occ.samples;
            const int next = static_cast<int>(
                std::llround(cum / total * rows_per_replica_));
            slots[occ.dev][occ.index].rows = {prev, next};
            prev = next;
          }
          DPIPE_ENSURE(prev == rows_per_replica_,
                       "frozen row partition does not cover the shard");
        }
      };
  bind_frozen(program_.per_device, steady_frozen_);
  bind_frozen(program_.preamble, preamble_frozen_);

  // Resolve which frozen layer identity produces the conditioning the
  // backbone consumes. Explicit via Options, else inferred as the final
  // layer of the lowest-numbered frozen component — the encoder's output
  // layer. (A multi-layer frozen encoder runs every layer; only the last
  // one's output is the conditioning.)
  int prod_component = opts.producer_component;
  int prod_layer = opts.producer_layer;
  if (prod_component < 0) {
    std::map<std::pair<int, int>, int> identities;
    for (const std::vector<std::vector<FrozenSlot>>* slots :
         {&steady_frozen_, &preamble_frozen_}) {
      for (const std::vector<FrozenSlot>& dev_slots : *slots) {
        for (const FrozenSlot& slot : dev_slots) {
          identities[{slot.component, slot.layer}] += 1;
        }
      }
    }
    if (!identities.empty()) {
      prod_component = identities.begin()->first.first;
      for (const auto& [key, count] : identities) {
        if (key.first == prod_component) {
          prod_layer = key.second;
        }
      }
    }
  }
  for (std::vector<std::vector<FrozenSlot>>* slots :
       {&steady_frozen_, &preamble_frozen_}) {
    for (std::vector<FrozenSlot>& dev_slots : *slots) {
      for (FrozenSlot& slot : dev_slots) {
        slot.produces_cond =
            slot.component == prod_component && slot.layer == prod_layer;
      }
    }
  }
}

ProgramInterpreter::ProgramInterpreter(const DdpmProblem& problem,
                                       const ProgramBinding& binding,
                                       int global_batch)
    : problem_(&problem), binding_(&binding), global_batch_(global_batch) {
  DPIPE_REQUIRE(global_batch >= 1, "global batch must be positive");
}

double ProgramInterpreter::train_wave(
    const std::vector<ReplicaState>& replicas,
    const std::vector<WaveInputs>& inputs, int iteration,
    const RtFaultInjection& fault, ExecutionLog* log) const {
  const ProgramBinding& b = *binding_;
  const int S = b.num_stages();
  const int M = b.num_micros();
  const int G = static_cast<int>(replicas.size());
  DPIPE_REQUIRE(G >= 1, "need at least one replica");
  DPIPE_REQUIRE(static_cast<int>(inputs.size()) == G,
                "one WaveInputs per replica");
  for (const WaveInputs& in : inputs) {
    DPIPE_REQUIRE(static_cast<int>(in.micros.size()) == M,
                  "micro-batch count mismatch with the program");
    DPIPE_REQUIRE(in.cond != nullptr, "wave needs encoder outputs");
  }
  if (log != nullptr) {
    log->resize(b.program().group_size);
  }

  // Per-stage parameter/gradient slices of every replica, precomputed so
  // the allreduce reducer and the optimizer steps need no module walks.
  std::vector<std::vector<std::vector<Tensor*>>> stage_params(G);
  std::vector<std::vector<std::vector<Tensor*>>> stage_grads(G);
  for (int g = 0; g < G; ++g) {
    stage_params[g].resize(S);
    stage_grads[g].resize(S);
    for (int s = 0; s < S; ++s) {
      for (int i = b.module_begin(s); i < b.module_end(s); ++i) {
        Module& mod = replicas[g].net->module(i);
        for (Tensor* p : mod.params()) {
          stage_params[g][s].push_back(p);
        }
        for (Tensor* gr : mod.grads()) {
          stage_grads[g][s].push_back(gr);
        }
      }
    }
  }

  // Inter-stage channels, flat-indexed [g * S + s]: act[s] carries stage
  // s -> s+1 activations, grad[s] carries stage s+1 -> s gradients.
  std::vector<Channel<Tensor>> act(static_cast<std::size_t>(G) * S);
  std::vector<Channel<Tensor>> grad(static_cast<std::size_t>(G) * S);
  // The cross-iteration fence: kLoadMicroBatch may not start before this
  // iteration's non-trainable outputs exist. The driver arms the gate once
  // the conditioning tensor is ready (here: before the wave starts).
  std::vector<Channel<int>> cond_gate(G);
  std::vector<std::unique_ptr<ReduceBarrier>> barriers;
  barriers.reserve(S);
  for (int s = 0; s < S; ++s) {
    barriers.push_back(std::make_unique<ReduceBarrier>(G));
  }
  for (int g = 0; g < G; ++g) {
    DPIPE_ENSURE(cond_gate[g].push(1),
                 "cond gate closed before the wave started");
  }

  const auto abort_all = [&] {
    for (Channel<Tensor>& ch : act) {
      ch.close();
    }
    for (Channel<Tensor>& ch : grad) {
      ch.close();
    }
    for (Channel<int>& ch : cond_gate) {
      ch.close();
    }
    for (const std::unique_ptr<ReduceBarrier>& barrier : barriers) {
      barrier->abort();
    }
  };

  const int per_micro = b.rows_per_replica() / M;
  std::vector<std::vector<Tensor>> preds(G);
  for (int g = 0; g < G; ++g) {
    preds[g].resize(M);
  }
  const int devices = b.program().group_size;
  TrainWave wave{b,         *problem_,  replicas,  inputs,   global_batch_,
                 iteration, fault,      log,       S,        M,
                 G,         per_micro,  stage_params, stage_grads,
                 act,       grad,       cond_gate, barriers, preds};
  std::vector<DeviceExec> tasks;
  tasks.reserve(static_cast<std::size_t>(G) * devices);
  for (int g = 0; g < G; ++g) {
    for (int dev = 0; dev < devices; ++dev) {
      tasks.emplace_back(wave, g, dev);
    }
  }
  // Forward + backward is ~6 FLOPs per parameter element per row.
  const double max_task_flops = 6.0 * per_micro * M *
                                max_device_params(b, *replicas[0].net);
  const std::vector<std::exception_ptr> errors =
      run_wave(tasks, abort_all, max_task_flops);
  // Scan device-major, so one set of failures always rethrows one error.
  for (int dev = 0; dev < devices; ++dev) {
    for (int g = 0; g < G; ++g) {
      if (errors[static_cast<std::size_t>(g) * devices + dev] != nullptr) {
        std::rethrow_exception(
            errors[static_cast<std::size_t>(g) * devices + dev]);
      }
    }
  }

  // Loss accumulation in the reference order: a per-replica partial sum
  // (micros ascending, elements in order), partials folded in ascending
  // replica order — bit-identical to summing each replica's wave result
  // sequentially.
  TensorPool& pool = TensorPool::global();
  double sse = 0.0;
  for (int g = 0; g < G; ++g) {
    double replica_sse = 0.0;
    for (int m = 0; m < M; ++m) {
      const Tensor& p = preds[g][m];
      const Tensor& t = inputs[g].micros[m].noise;
      DPIPE_ENSURE(p.shape() == t.shape(), "pred/target shape mismatch");
      for (std::int64_t i = 0; i < p.numel(); ++i) {
        const float d = p.data()[i] - t.data()[i];
        replica_sse += static_cast<double>(d) * d;
      }
      pool.release(std::move(preds[g][m]));
    }
    sse += replica_sse;
  }
  return sse;  // Caller normalizes over the global batch.
}

namespace {

/// Resumable per-device state of one forward_wave (the no-grad
/// self-conditioning pass) — same scheduling and stage-dispatch contract
/// as DeviceExec.
class ForwardExec {
 public:

  ForwardExec(const ProgramBinding& b, const DdpmProblem& problem,
              const ProgramInterpreter::ReplicaState& replica,
              const ProgramInterpreter::WaveInputs& inputs, int dev, int S,
              int M, int per_micro, std::vector<Channel<Tensor>>& act,
              std::vector<Tensor>& outputs)
      : b_(b),
        problem_(problem),
        replica_(replica),
        in_(inputs),
        S_(S),
        M_(M),
        per_micro_(per_micro),
        act_(act),
        outputs_(outputs),
        stream_(b.program().per_device[dev]),
        owned_(b.stages_of_device(dev)),
        loaded_(M),
        inbox_(owned_.size(), std::vector<Tensor>(M)) {}

  TaskStatus run() {
    progressed_ = false;
    while (ip_ < stream_.size()) {
      const Instruction& instr = stream_[ip_];
      switch (instr.kind) {
        case InstrKind::kLoadMicroBatch: {
          const int m = instr.micro;
          const int lo = m * per_micro_;
          const Tensor cond_rows = in_.cond->slice_rows(
              in_.row_offset + lo, in_.row_offset + lo + per_micro_);
          loaded_[m] = problem_.make_input(in_.micros[m], cond_rows, nullptr);
          break;
        }
        case InstrKind::kRecvActivation: {
          const int s = instr.stage;
          Tensor recv;
          switch (pop_from(act_[s - 1], recv)) {
            case PopOutcome::kOk:
              inbox_[b_.slot_of_stage(s)][instr.micro] = std::move(recv);
              break;
            case PopOutcome::kWouldBlock:
              return TaskStatus::kBlocked;
            case PopOutcome::kAborted:
              return finish();
          }
          break;
        }
        case InstrKind::kForward: {
          const int s = instr.stage;
          const int slot = b_.slot_of_stage(s);
          const int m = instr.micro;
          Tensor x =
              s == 0 ? std::move(loaded_[m]) : std::move(inbox_[slot][m]);
          Tensor y = replica_.net->forward_range(
              std::move(x), b_.module_begin(s), b_.module_end(s));
          if (s == S_ - 1) {
            outputs_[m] = std::move(y);
          } else {
            inbox_[slot][m] = std::move(y);
          }
          break;
        }
        case InstrKind::kSendActivation: {
          const int s = instr.stage;
          if (!act_[s].push(
                  std::move(inbox_[b_.slot_of_stage(s)][instr.micro]))) {
            return finish();
          }
          break;
        }
        default:
          break;  // No-grad pass: backward/opt/frozen ops are inert.
      }
      ++ip_;
      progressed_ = true;
    }
    // Discard the stashed contexts of this no-grad pass, per owned stage.
    // Reached only on natural completion (an aborted task skips it, like
    // the historical early task exit).
    for (const int s : owned_) {
      for (int m = 0; m < M_; ++m) {
        replica_.net->drop_context_range(b_.module_begin(s),
                                         b_.module_end(s));
      }
    }
    progressed_ = true;
    return TaskStatus::kDone;
  }

  [[nodiscard]] bool made_progress() const { return progressed_; }

 private:
  TaskStatus finish() {
    ip_ = stream_.size() + 1;  // Past-the-end: skip the context drop too.
    progressed_ = true;
    return TaskStatus::kDone;
  }

  const ProgramBinding& b_;
  const DdpmProblem& problem_;
  const ProgramInterpreter::ReplicaState& replica_;
  const ProgramInterpreter::WaveInputs& in_;
  int S_;
  int M_;
  int per_micro_;
  std::vector<Channel<Tensor>>& act_;
  std::vector<Tensor>& outputs_;
  const std::vector<Instruction>& stream_;
  const std::vector<int>& owned_;  ///< Stages this device owns, slot order.
  std::vector<Tensor> loaded_;
  std::vector<std::vector<Tensor>> inbox_;  ///< [slot][micro].
  std::size_t ip_ = 0;
  bool progressed_ = false;
};

}  // namespace

std::vector<Tensor> ProgramInterpreter::forward_wave(
    const ReplicaState& replica, const WaveInputs& inputs) const {
  const ProgramBinding& b = *binding_;
  const int S = b.num_stages();
  const int M = b.num_micros();
  DPIPE_REQUIRE(static_cast<int>(inputs.micros.size()) == M,
                "micro-batch count mismatch with the program");
  DPIPE_REQUIRE(inputs.cond != nullptr, "wave needs encoder outputs");
  const int per_micro = b.rows_per_replica() / M;
  const int devices = b.program().group_size;
  std::vector<Channel<Tensor>> act(S);
  std::vector<Tensor> outputs(M);
  const auto abort_all = [&] {
    for (Channel<Tensor>& ch : act) {
      ch.close();
    }
  };
  std::vector<ForwardExec> tasks;
  tasks.reserve(devices);
  for (int dev = 0; dev < devices; ++dev) {
    tasks.emplace_back(b, *problem_, replica, inputs, dev, S, M, per_micro,
                       act, outputs);
  }
  // Forward only: ~2 FLOPs per parameter element per row.
  const double max_task_flops =
      2.0 * per_micro * M * max_device_params(b, *replica.net);
  for (const std::exception_ptr& error :
       run_wave(tasks, abort_all, max_task_flops)) {
    if (error != nullptr) {
      std::rethrow_exception(error);
    }
  }
  return outputs;
}

void ProgramInterpreter::run_preamble(const Tensor& cond_raw, Tensor& cond,
                                      int replicas,
                                      ExecutionLog* log) const {
  const ProgramBinding& b = *binding_;
  const int devices = b.program().group_size;
  if (log != nullptr) {
    log->resize(devices);
  }
  // Preamble tasks are fully independent (disjoint row slices, no
  // channels): each finishes in its first run() call, and a failure has
  // nothing to abort.
  const auto run_device = [&](int g, int dev) {
    const int row_offset = g * b.rows_per_replica();
    int frozen_seen = 0;
    TensorPool& pool = TensorPool::global();
    for (const Instruction& instr : b.program().preamble[dev]) {
      if (log != nullptr && g == 0) {
        (*log)[dev].push_back(op_signature(instr));
      }
      // One bound slot per covered layer (see ProgramBinding).
      for (int layer = instr.layer_begin; layer < instr.layer_end; ++layer) {
        const ProgramBinding::FrozenSlot& slot =
            b.preamble_frozen()[dev][frozen_seen++];
        if (!slot.produces_cond || slot.rows.rows() == 0) {
          continue;  // Modeled compute only.
        }
        const Tensor raw = cond_raw.slice_rows(row_offset + slot.rows.begin,
                                               row_offset + slot.rows.end);
        Tensor enc = problem_->encode_condition(raw);
        const int cols = enc.cols();
        std::copy(enc.data(), enc.data() + enc.numel(),
                  cond.data() + static_cast<std::int64_t>(
                                    row_offset + slot.rows.begin) *
                                    cols);
        pool.release(std::move(enc));
      }
    }
  };
  std::vector<OneShotTask> tasks;
  tasks.reserve(static_cast<std::size_t>(replicas) * devices);
  for (int g = 0; g < replicas; ++g) {
    for (int dev = 0; dev < devices; ++dev) {
      tasks.push_back({[&run_device, g, dev] { run_device(g, dev); }});
    }
  }
  // The encoder's two bias-free matmuls (cond_raw -> 2c -> c) over a
  // replica's rows: the most one device can encode.
  const DdpmConfig& c = problem_->config();
  const double max_task_flops = 2.0 * b.rows_per_replica() * 2.0 *
                                c.cond_dim * (c.cond_raw_dim + c.cond_dim);
  for (const std::exception_ptr& error :
       run_wave(tasks, [] {}, max_task_flops)) {
    if (error != nullptr) {
      std::rethrow_exception(error);
    }
  }
}

ModelDesc trainer_planner_model(int num_modules) {
  DPIPE_REQUIRE(num_modules >= 1, "need at least one module");
  // Synthetic model whose backbone layers are 1:1 with the runtime's
  // Sequential modules; sizes are nominal (the planner only needs relative
  // costs, the interpreter executes real kernels regardless).
  ComponentDesc backbone;
  backbone.name = "backbone";
  backbone.trainable = true;
  backbone.deps = {1};
  for (int l = 0; l < num_modules; ++l) {
    LayerDesc layer;
    layer.name = "mlp" + std::to_string(l);
    layer.kind = LayerKind::kLinear;
    layer.fwd_gflop = 1.0;
    layer.param_mb = 1.0;
    layer.output_mb = 0.1;
    layer.act_mb = 0.1;
    backbone.layers.push_back(layer);
  }
  ComponentDesc encoder;
  encoder.name = "frozen_encoder";
  encoder.trainable = false;
  LayerDesc enc_layer;
  enc_layer.name = "encode";
  enc_layer.kind = LayerKind::kEmbedding;
  enc_layer.fwd_gflop = 0.5;
  enc_layer.param_mb = 1.0;
  enc_layer.grad_mb = 0.0;
  enc_layer.output_mb = 0.1;
  encoder.layers.push_back(enc_layer);
  ModelDesc model;
  model.name = "rt_trainer";
  model.components = {backbone, encoder};
  model.backbone_ids = {0};
  validate(model);
  return model;
}

TrainerLowering lower_trainer_program(const TrainerLoweringSpec& spec) {
  const int S = spec.num_stages;
  const int M = spec.num_microbatches;
  const int G = spec.data_parallel_degree;
  DPIPE_REQUIRE(S >= 1, "need at least one stage");
  DPIPE_REQUIRE(M >= 1, "need at least one micro-batch");
  DPIPE_REQUIRE(G >= 1, "need at least one replica");
  DPIPE_REQUIRE(spec.global_batch % (G * M) == 0,
                "global batch must divide into replicas x micro-batches");
  DPIPE_REQUIRE(spec.family == ScheduleFamily::k1F1B ||
                    spec.family == ScheduleFamily::kInterleaved,
                "trainer lowering supports the 1f1b and interleaved "
                "schedule families only");
  DPIPE_REQUIRE(spec.vstages >= 1, "vstages must be positive");
  DPIPE_REQUIRE(
      spec.vstages == 1 || spec.family == ScheduleFamily::kInterleaved,
      "vstages > 1 needs --schedule=interleaved");
  const int V = spec.family == ScheduleFamily::kInterleaved ? spec.vstages : 1;
  const int St = S * V;  ///< Total (virtual) stages over S devices.
  DPIPE_REQUIRE(V == 1 || S >= 2,
                "interleaved with vstages > 1 needs at least two devices");
  DPIPE_REQUIRE(spec.num_modules >= St,
                "more (virtual) stages than runtime modules");
  const int L = spec.num_modules;
  const int per_replica = spec.global_batch / G;

  TrainerLowering out;
  out.model = trainer_planner_model(L);

  const ClusterSpec cluster = make_p4de_cluster((S * G + 7) / 8);
  const AnalyticCostModel cost(cluster.device, NoiseSource(1, 0.0));
  const ProfileDb db(out.model, cost, default_batch_grid());
  const CommModel comm(cluster);

  out.options.num_stages = St;
  out.options.num_microbatches = M;
  out.options.group_size = S;
  out.options.data_parallel_degree = G;
  out.options.microbatch_size =
      static_cast<double>(per_replica) / M;

  // The trainer's historical stage split over the virtual-stage count:
  // module s*L/St .. (s+1)*L/St on device s % S (round-robin; the identity
  // placement when V == 1).
  std::vector<StagePlan> stages(St);
  for (int s = 0; s < St; ++s) {
    stages[s].layer_begin = s * L / St;
    stages[s].layer_end = (s + 1) * L / St;
    stages[s].replicas = 1;
    stages[s].device_ranks = {s % S};
  }

  const ScheduleBuilder builder(db, comm);
  const Schedule schedule =
      spec.family == ScheduleFamily::kInterleaved
          ? builder.build_interleaved(0, stages, out.options)
          : builder.build_1f1b(0, stages, out.options);

  FillResult fill;
  if (spec.cross_iteration) {
    FillOptions fill_opts;
    fill_opts.training_batch = per_replica;
    fill = BubbleFiller(db).fill(schedule, fill_opts);
  } else {
    // No steady-state frozen work: the non-trainable part runs as the
    // (per-iteration) preamble, un-overlapped.
    fill.filled_schedule = schedule;
  }
  out.program =
      generate_instructions(db, fill.filled_schedule, fill, out.options);
  return out;
}

}  // namespace dpipe::rt
