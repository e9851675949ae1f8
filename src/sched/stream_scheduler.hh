/**
 * @file
 * Event-driven multi-stream scheduler.
 *
 * StreamScheduler turns the engine's per-instruction pipeline into
 * discrete events on an EventQueue. Each stream advances through a
 * chain of dispatch events: a dispatch event asks the dispatcher
 * (the Engine) to run one instruction's pipeline — offloader stage,
 * feature collection, policy decision, operand movement, and resource
 * reservation on the shared FCFS calendars — and reports back when
 * the instruction will complete and when the stream's next dispatch
 * may fire. The scheduler then enqueues the completion event and the
 * next dispatch event.
 *
 * Ordering is what makes co-running deterministic AND single-stream
 * runs byte-identical to the old serial loop:
 *
 *  - The EventQueue fires events by (tick, priority, sequence), so
 *    two streams' dispatches interleave in simulated-time order with
 *    scheduling order breaking ties — never host-thread order.
 *  - A single stream's dispatch chain is strictly sequential (each
 *    dispatch schedules the next), so the engine observes exactly
 *    the call sequence of the old `for (instr : prog.instrs)` loop.
 *
 * Completion events fire after same-tick dispatches (lower priority)
 * and only advance the stream's observed end time; all resource
 * state was already reserved at dispatch, mirroring the paper's
 * reservation-calendar contention model (§4.3.2).
 */

#ifndef CONDUIT_SCHED_STREAM_SCHEDULER_HH
#define CONDUIT_SCHED_STREAM_SCHEDULER_HH

#include <functional>

#include "src/sched/exec_context.hh"
#include "src/sim/event_queue.hh"

namespace conduit::sched
{

/** What one dispatched instruction implies for the event chain. */
struct DispatchOutcome
{
    /** Earliest tick the stream's next dispatch event may fire. */
    Tick nextDispatch = 0;

    /** Tick at which the dispatched instruction completes. */
    Tick completion = 0;
};

/**
 * The scheduler's view of the engine: dispatch one instruction of a
 * stream through the full decision/movement/reservation pipeline.
 * Implemented by Engine; the scheduler needs nothing else from it.
 */
class StreamDispatcher
{
  public:
    virtual ~StreamDispatcher() = default;

    /**
     * Execute the pipeline for @p ctx's next instruction (advancing
     * ctx.pc) and return the resulting event times. @p now is the
     * simulated time of the dispatch event, which gates shared-
     * resource acquisition so a stream that joined the device at a
     * later tick cannot consume capacity from before its arrival.
     */
    virtual DispatchOutcome dispatchNext(ExecContext &ctx, Tick now) = 0;
};

/** Drives N streams' dispatch chains as events on one queue. */
class StreamScheduler
{
  public:
    /** Dispatch events outrank completion events at the same tick. */
    static constexpr int kDispatchPriority = 0;
    static constexpr int kCompletionPriority = 1;

    /** Invoked inside a stream's final completion event. */
    using StreamDone = std::function<void(ExecContext &)>;

    StreamScheduler(StreamDispatcher &dispatcher, EventQueue &queue);

    /**
     * Register a stream and schedule its first dispatch at tick
     * @p arrival (default: tick 0, the classic batch run). Streams
     * may join at any future simulated tick — the arrival event
     * model behind open-loop job submission. An empty program is
     * marked finished immediately and never dispatches.
     *
     * The context must outlive its last event — the event callbacks
     * hold references.
     */
    void add(ExecContext &ctx, Tick arrival = 0);

    /**
     * Register a callback fired when a stream finishes (all
     * instructions dispatched and every completion event fired).
     * Runs inside the final completion event, so a persistent device
     * can retire the job — drain results, reclaim its page region,
     * admit queued jobs — at a deterministic point in simulated time.
     */
    void setStreamDone(StreamDone cb) { streamDone_ = std::move(cb); }

  private:
    void onDispatch(ExecContext &ctx);

    StreamDispatcher &dispatcher_;
    EventQueue &queue_;
    StreamDone streamDone_;
};

} // namespace conduit::sched

#endif // CONDUIT_SCHED_STREAM_SCHEDULER_HH
