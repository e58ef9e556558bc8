#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/instr/instructions.h"
#include "runtime/channel.h"
#include "runtime/ddpm.h"
#include "runtime/optim.h"

namespace dpipe::rt {

/// How ProgramInterpreter schedules the per-(replica, device) tasks of a
/// wave. Every task is a resumable state machine that runs until its next
/// channel pop or allreduce barrier would block, then yields; one
/// cooperative loop drives them with W workers (DESIGN.md §13). kSerial is
/// W = 1, a round-robin on the calling thread whose kernels may fan out
/// over the process pool. kThreads runs W = min(#tasks, pool width)
/// workers as one batch on the process pool's persistent threads, whose
/// kernels then run inline — one level of parallelism at a time. Because
/// every value is a pure function of the inputs (see ProgramInterpreter),
/// every W is bit-identical. kAuto picks per wave from the wave's own work
/// (detail::select_wave_exec); ThreadSanitizer builds resolve kAuto to
/// kThreads so their runs keep checking the pooled interleavings.
enum class WaveExec { kAuto, kThreads, kSerial };

[[nodiscard]] const char* wave_exec_name(WaveExec mode);

/// Process-wide wave scheduler override (default kAuto). wave_exec()
/// returns the override, or kAuto when none is set.
[[nodiscard]] WaveExec wave_exec();
void set_wave_exec(WaveExec mode);

namespace detail {

/// Estimated FLOPs of a wave's largest task from which kAuto runs the
/// pooled driver: inside the crossover band, roughly 0.5-1.5 M FLOPs per
/// task, measured on a 4-core AVX2 host (DESIGN.md §13).
inline constexpr double kThreadedWaveMinTaskFlops = 1e6;

/// kAuto's rule: kThreads when the process pool (kernel_threads(), which
/// honours DPIPE_THREADS and set_pool_width) is wider than one thread
/// and the wave's largest task is estimated at kThreadedWaveMinTaskFlops
/// or more, else kSerial.
[[nodiscard]] WaveExec select_wave_exec(double max_task_flops,
                                        int pool_width);

}  // namespace detail

/// Integer row range [begin, end) within one replica's batch shard.
struct RowRange {
  int begin = 0;
  int end = 0;

  [[nodiscard]] int rows() const { return end - begin; }
};

/// Per-device execution record: op_signature() strings of device-occupying
/// ops (load/forward/backward/frozen/optimizer) in the order the real
/// runtime executed them. Directly comparable to occupancy_trace() and to
/// the engine's measured timelines — the cross-backend parity artifact.
using ExecutionLog = std::vector<std::vector<std::string>>;

/// Binds a validated InstructionProgram onto the functional runtime: maps
/// `Instruction.component`/`layer_begin..end` onto rt::Sequential module
/// slices, devices onto their owned (virtual) stages, and frozen-forward
/// placements onto integer row ranges of the replica's batch shard.
///
/// Requires ProgramValidator::validate_runtime_bindable to pass (single
/// backbone; every stage owned by exactly one device — a device may own
/// several virtual stages under the round-robin interleaved placement;
/// FIFO micro order per owned stage; per-boundary channel-FIFO pairing);
/// throws std::invalid_argument carrying the report otherwise.
/// num_stages() counts *virtual* stages: with V stages per device it is
/// V * group_size.
///
/// Planner layers need not be 1:1 with runtime modules: stage layer cuts
/// are mapped proportionally onto module indices (monotone, at least one
/// module per stage). When the program was lowered from the runtime's own
/// synthetic model (lower_trainer_program) the mapping is the identity.
class ProgramBinding {
 public:
  struct Options {
    int num_modules = 0;       ///< rt::Sequential size to bind onto.
    int rows_per_replica = 0;  ///< Integer samples behind one iteration of
                               ///< the program (its group batch).
    /// The frozen (component, layer) placement whose outputs are the
    /// encoder embeddings consumed by kLoadMicroBatch. -1 = infer: the
    /// final layer of the lowest-numbered frozen component (a multi-layer
    /// frozen encoder runs every layer, but only the last one's output is
    /// the conditioning). Other frozen placements are replayed as modeled
    /// compute only.
    int producer_component = -1;
    int producer_layer = -1;
  };

  ProgramBinding(const InstructionProgram& program, const Options& opts);

  [[nodiscard]] const InstructionProgram& program() const {
    return program_;
  }
  [[nodiscard]] int num_stages() const { return num_stages_; }
  [[nodiscard]] int num_micros() const { return num_micros_; }
  [[nodiscard]] int rows_per_replica() const { return rows_per_replica_; }
  /// The stages device `dev` owns, in slot (stream) order. Length 1 for
  /// one-stage-per-device programs, V for interleaved ones.
  [[nodiscard]] const std::vector<int>& stages_of_device(int dev) const {
    return stages_of_device_[dev];
  }
  [[nodiscard]] int device_of_stage(int stage) const {
    return device_of_stage_[stage];
  }
  /// Index of `stage` within its owning device's ordered stage list.
  [[nodiscard]] int slot_of_stage(int stage) const {
    return slot_of_stage_[stage];
  }
  /// Module range [begin, end) of `stage` within the bound Sequential.
  [[nodiscard]] int module_begin(int stage) const {
    return module_cut_[stage];
  }
  [[nodiscard]] int module_end(int stage) const {
    return module_cut_[stage + 1];
  }
  /// The whole stage->module cover (length num_stages + 1, starts at 0,
  /// ends at num_modules) — the geometry key checkpoints are sharded by.
  [[nodiscard]] const std::vector<int>& module_cut() const {
    return module_cut_;
  }

  /// One kFrozenForward occurrence bound to shard rows.
  struct FrozenSlot {
    int component = -1;
    int layer = -1;
    RowRange rows;               ///< Shard rows this occurrence encodes.
    bool produces_cond = false;  ///< Writes encoder outputs (vs modeled).
  };
  /// steady_frozen()[dev][j]: j-th kFrozenForward in dev's steady stream.
  [[nodiscard]] const std::vector<std::vector<FrozenSlot>>& steady_frozen()
      const {
    return steady_frozen_;
  }
  [[nodiscard]] const std::vector<std::vector<FrozenSlot>>& preamble_frozen()
      const {
    return preamble_frozen_;
  }

 private:
  InstructionProgram program_;  ///< Owned copy: the bound contract.
  int num_stages_ = 0;
  int num_micros_ = 0;
  int rows_per_replica_ = 0;
  std::vector<std::vector<int>> stages_of_device_;
  std::vector<int> device_of_stage_;
  std::vector<int> slot_of_stage_;
  std::vector<int> module_cut_;  ///< Length num_stages + 1.
  std::vector<std::vector<FrozenSlot>> steady_frozen_;
  std::vector<std::vector<FrozenSlot>> preamble_frozen_;
};

/// Executes a bound InstructionProgram on the functional runtime. One
/// instruction walker serves three passes over the program: a training
/// wave runs the steady streams in full, the self-conditioning wave runs
/// only their load/recv-activation/forward/send-activation ops, and the
/// preamble wave runs the preamble streams. Each wave is group_size x
/// replicas resumable tasks — one per (replica, device), each driving all
/// of the device's owned virtual stages — scheduled cooperatively per
/// WaveExec. rt::Channels carry activations/gradients between stage tasks,
/// a cross-replica rendezvous realizes kAllReduceGrads, kOptimizerStep
/// updates the stage's parameter slice in place, and kFrozenForward ops
/// encode their bound row slice of the conditioning into a sink tensor
/// (the *next* iteration's inside a training wave, this iteration's in the
/// preamble). The cross-iteration kLoadMicroBatch fence needs no signal:
/// the caller passes this iteration's conditioning, which exists before
/// the wave starts.
///
/// Determinism: every value is a pure function of the inputs — task
/// interleaving cannot change results because tensors flow point-to-point,
/// the gradient reduction runs in ascending replica order under a lock,
/// and per-stage optimizer updates touch disjoint parameter slices. A
/// failing task aborts its wave; the first error in device-major order is
/// rethrown.
class ProgramInterpreter {
 public:
  /// Mutable training state of one data-parallel replica.
  struct ReplicaState {
    Sequential* net = nullptr;
    const Sgd* sgd = nullptr;       ///< Used when stage_adam is empty.
    std::vector<Adam*> stage_adam;  ///< Per-stage Adam (or empty for SGD).
  };

  /// One replica's inputs for one iteration of the program.
  struct WaveInputs {
    std::vector<DdpmProblem::Batch> micros;  ///< Per-micro batch slices.
    const Tensor* cond = nullptr;  ///< Encoder outputs, all replicas' rows.
    int row_offset = 0;            ///< This replica's first row in `cond`.
    const Tensor* self_cond = nullptr;      ///< [shard rows, data_dim].
    const Tensor* next_cond_raw = nullptr;  ///< Raw cond the frozen ops
                                            ///< encode (all replicas' rows).
    Tensor* next_cond = nullptr;   ///< Sink for kFrozenForward outputs.
  };

  /// `net` is a backbone of the replicas' shape: its per-device parameter
  /// counts size every wave's work estimate, once.
  ProgramInterpreter(const DdpmProblem& problem,
                     const ProgramBinding& binding, int global_batch,
                     Sequential& net);

  /// One full training iteration across all replicas in one wave: 1F1B
  /// forward/backward, gradient allreduce, optimizer steps, and
  /// (cross-iteration mode) frozen-forward encoding of the next
  /// iteration's inputs. Returns the summed squared error over all
  /// replicas (ascending replica order). `log` (optional) records replica
  /// 0's per-device execution order.
  double train_wave(const std::vector<ReplicaState>& replicas,
                    const std::vector<WaveInputs>& inputs, int iteration,
                    const RtFaultInjection& fault, ExecutionLog* log) const;

  /// The self-conditioning first pass: a no-grad replay of the program's
  /// load/recv/forward/send instructions for every replica in one wave.
  /// Its inputs carry no self_cond yet (this pass produces it). Returns
  /// the last stage's outputs [replica][micro]; the pass's stashed
  /// contexts are dropped.
  [[nodiscard]] std::vector<std::vector<Tensor>> forward_wave(
      const std::vector<ReplicaState>& replicas,
      const std::vector<WaveInputs>& inputs) const;

  /// Executes the iteration-0 preamble streams: every device encodes its
  /// bound row slice of `cond_raw` into `cond` (one task per device per
  /// replica; rows are disjoint). Also used every iteration when
  /// cross-iteration mode is off — the program then has no steady frozen
  /// ops and the whole non-trainable part runs un-overlapped.
  void run_preamble(const Tensor& cond_raw, Tensor& cond, int replicas,
                    ExecutionLog* log) const;

 private:
  const DdpmProblem* problem_;
  const ProgramBinding* binding_;
  int global_batch_;
  /// Largest parameter-element count any one device owns across its
  /// stages: the weight factor of a wave's largest task.
  double max_device_params_ = 0.0;
};

/// The PipelineTrainer's program generation: a synthetic ModelDesc whose
/// backbone layers are 1:1 with the runtime Sequential's modules (plus a
/// one-layer frozen encoder component), partitioned with the trainer's
/// historical stage split, scheduled by ScheduleBuilder::build_1f1b,
/// bubble-filled (cross-iteration mode only), and lowered through
/// generate_instructions. The engine can replay `program` against a
/// ProfileDb built from `model` — that is the cross-backend parity setup.
struct TrainerLowering {
  ModelDesc model;
  PartitionOptions options;
  InstructionProgram program;
};

struct TrainerLoweringSpec {
  int num_stages = 1;  ///< Pipeline devices (the pipeline-parallel degree).
  int num_microbatches = 1;
  int data_parallel_degree = 1;
  int global_batch = 1;
  bool cross_iteration = true;
  int num_modules = 1;  ///< rt::Sequential size; must be >= num_stages
                        ///< (>= num_stages * vstages when interleaved).
  /// Schedule family. k1F1B is the historical trainer schedule;
  /// kInterleaved places vstages virtual stages round-robin on each device
  /// (vstages == 1 lowers to a program bit-identical to the k1F1B one).
  /// Other families are not runtime-bindable (GPipe's LIFO backward order
  /// breaks the FIFO autograd stashes).
  ScheduleFamily family = ScheduleFamily::k1F1B;
  int vstages = 1;  ///< Virtual stages per device (kInterleaved only).
};

[[nodiscard]] TrainerLowering lower_trainer_program(
    const TrainerLoweringSpec& spec);

/// The synthetic planner model lower_trainer_program builds: a trainable
/// backbone whose layers are 1:1 with the runtime Sequential's modules plus
/// a one-layer frozen encoder. Exposed so elastic re-plans can run the full
/// Planner over exactly the model the runtime will bind the result onto.
[[nodiscard]] ModelDesc trainer_planner_model(int num_modules);

}  // namespace dpipe::rt
