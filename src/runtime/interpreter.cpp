#include "runtime/interpreter.h"

#include <algorithm>
#include <atomic>
#include <cmath>
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

/// Which instructions of the program one wave executes (DESIGN.md §9).
enum class Pass {
  kTrain,     ///< The steady streams in full: one training iteration.
  kForward,   ///< Only the steady streams' load, recv-activation, forward
              ///< and send-activation ops: the no-grad self-conditioning
              ///< pass, which drops its stashed contexts at the end.
  kPreamble,  ///< The preamble streams: the un-overlapped frozen encoder.
};

/// Whether `pass` executes instructions of `kind` (the others are inert).
[[nodiscard]] bool runs_in(Pass pass, InstrKind kind) {
  return pass != Pass::kForward || kind == InstrKind::kLoadMicroBatch ||
         kind == InstrKind::kRecvActivation || kind == InstrKind::kForward ||
         kind == InstrKind::kSendActivation;
}

/// One wave: everything its per-(replica, device) tasks share. The wave
/// owns its channels, barriers and last-stage outputs; tasks hold a
/// reference to it.
struct Wave {
  Wave(Pass pass, const ProgramBinding& b, const DdpmProblem& problem,
       const std::vector<ProgramInterpreter::ReplicaState>& replicas,
       const std::vector<ProgramInterpreter::WaveInputs>& inputs)
      : pass(pass),
        b(b),
        problem(problem),
        replicas(replicas),
        inputs(inputs),
        S(b.num_stages()),
        M(b.num_micros()),
        G(static_cast<int>(inputs.size())),
        per_micro(b.rows_per_replica() / M),
        act(pass == Pass::kPreamble ? 0 : static_cast<std::size_t>(G) * S),
        grad(pass == Pass::kTrain ? static_cast<std::size_t>(G) * S : 0),
        preds(pass == Pass::kPreamble ? 0 : G) {
    for (std::vector<Tensor>& micros : preds) {
      micros.resize(M);
    }
    if (pass != Pass::kTrain) {
      return;
    }
    // Per-stage parameter/gradient slices of every replica, precomputed so
    // the allreduce reducer and the optimizer steps need no module walks.
    stage_params.resize(G);
    stage_grads.resize(G);
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
    barriers.reserve(S);
    for (int s = 0; s < S; ++s) {
      barriers.push_back(std::make_unique<ReduceBarrier>(G));
    }
  }

  /// Closes every channel and aborts every barrier, so the peers of a
  /// failed task drain out of their pops and barriers.
  void abort() {
    for (Channel<Tensor>& ch : act) {
      ch.close();
    }
    for (Channel<Tensor>& ch : grad) {
      ch.close();
    }
    for (const std::unique_ptr<ReduceBarrier>& barrier : barriers) {
      barrier->abort();
    }
  }

  Pass pass;
  const ProgramBinding& b;
  const DdpmProblem& problem;
  /// One per replica; empty for kPreamble, which touches no backbone.
  const std::vector<ProgramInterpreter::ReplicaState>& replicas;
  const std::vector<ProgramInterpreter::WaveInputs>& inputs;  ///< [g].
  int S;
  int M;
  int G;
  int per_micro;
  int global_batch = 0;    ///< kTrain: the loss gradient's normalizer.
  int iteration = 0;       ///< kTrain: the iteration fault injection sees.
  RtFaultInjection fault;  ///< Disarmed unless set (kTrain).
  ExecutionLog* log = nullptr;  ///< Replica 0's per-device order, or null.
  /// kTrain: [g][s] parameter and gradient slices.
  std::vector<std::vector<std::vector<Tensor*>>> stage_params;
  std::vector<std::vector<std::vector<Tensor*>>> stage_grads;
  /// Inter-stage channels, flat-indexed [g * S + s]: act[s] carries stage
  /// s -> s+1 activations (kTrain, kForward), grad[s] carries stage
  /// s+1 -> s gradients (kTrain).
  std::vector<Channel<Tensor>> act;
  std::vector<Channel<Tensor>> grad;
  std::vector<std::unique_ptr<ReduceBarrier>> barriers;  ///< [s], kTrain.
  std::vector<std::vector<Tensor>> preds;  ///< [g][m] last-stage outputs.
};

/// Outcome of one wave task's run() call.
enum class TaskStatus { kBlocked, kDone };

/// Resumable execution state of one (replica g, device dev) task of a wave
/// — the historical per-thread body with its locals lifted into members
/// and an instruction cursor. One task walks its device's stream for the
/// wave's pass (the steady stream for kTrain and kForward, the preamble
/// stream for kPreamble), dispatching each op onto the owned (virtual)
/// stage it names: per-stage inbox/barrier state is indexed by the stage's
/// slot, so an interleaved device drives V resumable stage machines from
/// one cursor. The wave scheduler calls run() repeatedly, from whichever
/// worker claims the task: it executes until its next channel pop or
/// barrier would block, returns kBlocked with all state intact, and
/// resumes exactly where it stopped. Suspension points carry no partial
/// arithmetic, so every schedule produces bit-identical tensors.
class DeviceExec {
 public:
  DeviceExec(Wave& w, int g, int dev)
      : w_(w),
        g_(g),
        dev_(dev),
        stream_(w.pass == Pass::kPreamble ? w.b.program().preamble[dev]
                                          : w.b.program().per_device[dev]),
        frozen_(w.pass == Pass::kPreamble ? w.b.preamble_frozen()[dev]
                                          : w.b.steady_frozen()[dev]),
        in_(w.inputs[g]),
        replica_(w.pass == Pass::kPreamble ? nullptr : &w.replicas[g]),
        owned_(w.b.stages_of_device(dev)),
        loaded_(w.M),
        inbox_act_(owned_.size(), std::vector<Tensor>(w.M)),
        inbox_grad_(owned_.size(), std::vector<Tensor>(w.M)),
        local_grads_(w.M),
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
  /// it again, and a kForward task skips its context drop.
  TaskStatus finish() {
    ip_ = stream_.size();
    progressed_ = true;
    return TaskStatus::kDone;
  }

  Wave& w_;
  int g_;
  int dev_;
  const std::vector<Instruction>& stream_;
  const std::vector<ProgramBinding::FrozenSlot>& frozen_;  ///< [occurrence].
  const ProgramInterpreter::WaveInputs& in_;
  const ProgramInterpreter::ReplicaState* replica_;  ///< Null for kPreamble.
  const std::vector<int>& owned_;  ///< Stages this device owns, slot order.
  std::vector<Tensor> loaded_;                   ///< Stage-0 inputs [micro].
  std::vector<std::vector<Tensor>> inbox_act_;   ///< [slot][micro].
  std::vector<std::vector<Tensor>> inbox_grad_;  ///< [slot][micro].
  std::vector<Tensor> local_grads_;              ///< Last stage's loss grads.
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
    if (!runs_in(w_.pass, instr.kind)) {
      ++ip_;
      progressed_ = true;
      continue;
    }
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
        // The cross-iteration fence needs no wait: this iteration's
        // conditioning exists before the wave starts.
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
        switch (w_.act[g_ * w_.S + (s - 1)].try_pop(recv)) {
          case TryPop::kValue:
            inbox_act_[w_.b.slot_of_stage(s)][instr.micro] = std::move(recv);
            break;
          case TryPop::kEmpty:
            return TaskStatus::kBlocked;
          case TryPop::kClosed:
            return finish();  // Peer aborted the wave.
        }
        break;
      }
      case InstrKind::kRecvGradient: {
        const int s = instr.stage;
        Tensor recv;
        switch (w_.grad[g_ * w_.S + s].try_pop(recv)) {
          case TryPop::kValue:
            inbox_grad_[w_.b.slot_of_stage(s)][instr.micro] = std::move(recv);
            break;
          case TryPop::kEmpty:
            return TaskStatus::kBlocked;
          case TryPop::kClosed:
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
        Tensor y = replica_->net->forward_range(
            std::move(x), w_.b.module_begin(s), w_.b.module_end(s));
        if (s == w_.S - 1) {
          if (w_.pass == Pass::kTrain) {
            local_grads_[m] = w_.problem.loss_grad(y, in_.micros[m].noise,
                                                   w_.global_batch);
          }
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
        Tensor gout = replica_->net->backward_range(
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
          const ProgramBinding::FrozenSlot& slot = frozen_[frozen_seen_++];
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
        if (!replica_->stage_adam.empty()) {
          replica_->stage_adam[s]->step(w_.stage_params[g_][s],
                                        w_.stage_grads[g_][s]);
        } else {
          replica_->sgd->step(w_.stage_params[g_][s], w_.stage_grads[g_][s]);
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
  if (w_.pass == Pass::kForward) {
    // Discard the no-grad pass's stashed contexts, one per micro per owned
    // stage. An aborted task returns through finish() and skips this.
    for (const int s : owned_) {
      for (int m = 0; m < w_.M; ++m) {
        replica_->net->drop_context_range(w_.b.module_begin(s),
                                          w_.b.module_end(s));
      }
    }
  }
  return TaskStatus::kDone;
}

/// Runs one wave's tasks to completion and returns each task's error (null
/// if it finished cleanly), indexed like `tasks`. A task's run() executes
/// until its next channel pop or barrier would block (kBlocked, state kept
/// for the next call) or the task ends (kDone).
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
/// aborts the wave, so its peers drain out of their pops and barriers.
[[nodiscard]] std::vector<std::exception_ptr> run_wave(
    std::vector<DeviceExec>& tasks, Wave& wave, double max_task_flops) {
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
          wave.abort();
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

/// Runs `wave` as one task per (replica, device), on the driver its
/// largest task's estimated `max_task_flops` picks, then rethrows the
/// first recorded error scanning device-major, so one set of failures
/// always rethrows one error.
void execute(Wave& wave, double max_task_flops) {
  const int devices = wave.b.program().group_size;
  if (wave.log != nullptr) {
    wave.log->resize(devices);
  }
  std::vector<DeviceExec> tasks;
  tasks.reserve(static_cast<std::size_t>(wave.G) * devices);
  for (int g = 0; g < wave.G; ++g) {
    for (int dev = 0; dev < devices; ++dev) {
      tasks.emplace_back(wave, g, dev);
    }
  }
  const std::vector<std::exception_ptr> errors =
      run_wave(tasks, wave, max_task_flops);
  for (int dev = 0; dev < devices; ++dev) {
    for (int g = 0; g < wave.G; ++g) {
      if (errors[static_cast<std::size_t>(g) * devices + dev] != nullptr) {
        std::rethrow_exception(
            errors[static_cast<std::size_t>(g) * devices + dev]);
      }
    }
  }
}

/// Checks one steady-stream wave's per-replica inputs against the program.
void require_steady_inputs(
    const ProgramBinding& b,
    const std::vector<ProgramInterpreter::ReplicaState>& replicas,
    const std::vector<ProgramInterpreter::WaveInputs>& inputs) {
  DPIPE_REQUIRE(!replicas.empty(), "need at least one replica");
  DPIPE_REQUIRE(inputs.size() == replicas.size(),
                "one WaveInputs per replica");
  for (const ProgramInterpreter::WaveInputs& in : inputs) {
    DPIPE_REQUIRE(static_cast<int>(in.micros.size()) == b.num_micros(),
                  "micro-batch count mismatch with the program");
    DPIPE_REQUIRE(in.cond != nullptr, "wave needs encoder outputs");
  }
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
                                       int global_batch, Sequential& net)
    : problem_(&problem), binding_(&binding), global_batch_(global_batch) {
  DPIPE_REQUIRE(global_batch >= 1, "global batch must be positive");
  DPIPE_REQUIRE(net.size() == binding.module_cut().back(),
                "backbone does not match the binding's module count");
  for (int dev = 0; dev < binding.program().group_size; ++dev) {
    double params = 0.0;
    for (const int s : binding.stages_of_device(dev)) {
      for (int i = binding.module_begin(s); i < binding.module_end(s); ++i) {
        for (const Tensor* p : net.module(i).params()) {
          params += static_cast<double>(p->numel());
        }
      }
    }
    max_device_params_ = std::max(max_device_params_, params);
  }
}

double ProgramInterpreter::train_wave(
    const std::vector<ReplicaState>& replicas,
    const std::vector<WaveInputs>& inputs, int iteration,
    const RtFaultInjection& fault, ExecutionLog* log) const {
  require_steady_inputs(*binding_, replicas, inputs);
  Wave wave(Pass::kTrain, *binding_, *problem_, replicas, inputs);
  wave.global_batch = global_batch_;
  wave.iteration = iteration;
  wave.fault = fault;
  wave.log = log;
  // Forward + backward is ~6 FLOPs per parameter element per row.
  execute(wave, 6.0 * wave.per_micro * wave.M * max_device_params_);

  // Loss accumulation in the reference order: a per-replica partial sum
  // (micros ascending, elements in order), partials folded in ascending
  // replica order — bit-identical to summing each replica's wave result
  // sequentially.
  TensorPool& pool = TensorPool::global();
  double sse = 0.0;
  for (int g = 0; g < wave.G; ++g) {
    double replica_sse = 0.0;
    for (int m = 0; m < wave.M; ++m) {
      const Tensor& p = wave.preds[g][m];
      const Tensor& t = inputs[g].micros[m].noise;
      DPIPE_ENSURE(p.shape() == t.shape(), "pred/target shape mismatch");
      for (std::int64_t i = 0; i < p.numel(); ++i) {
        const float d = p.data()[i] - t.data()[i];
        replica_sse += static_cast<double>(d) * d;
      }
      pool.release(std::move(wave.preds[g][m]));
    }
    sse += replica_sse;
  }
  return sse;  // Caller normalizes over the global batch.
}

std::vector<std::vector<Tensor>> ProgramInterpreter::forward_wave(
    const std::vector<ReplicaState>& replicas,
    const std::vector<WaveInputs>& inputs) const {
  require_steady_inputs(*binding_, replicas, inputs);
  Wave wave(Pass::kForward, *binding_, *problem_, replicas, inputs);
  // Forward only: ~2 FLOPs per parameter element per row.
  execute(wave, 2.0 * wave.per_micro * wave.M * max_device_params_);
  return std::move(wave.preds);
}

void ProgramInterpreter::run_preamble(const Tensor& cond_raw, Tensor& cond,
                                      int replicas,
                                      ExecutionLog* log) const {
  const ProgramBinding& b = *binding_;
  std::vector<WaveInputs> inputs(replicas);
  for (int g = 0; g < replicas; ++g) {
    inputs[g].row_offset = g * b.rows_per_replica();
    inputs[g].next_cond_raw = &cond_raw;
    inputs[g].next_cond = &cond;
  }
  const std::vector<ReplicaState> no_replicas;
  Wave wave(Pass::kPreamble, b, *problem_, no_replicas, inputs);
  wave.log = log;
  // The encoder's two bias-free matmuls (cond_raw -> 2c -> c) over a
  // replica's rows: the most one device can encode.
  const DdpmConfig& c = problem_->config();
  execute(wave, 2.0 * b.rows_per_replica() * 2.0 * c.cond_dim *
                    (c.cond_raw_dim + c.cond_dim));
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
