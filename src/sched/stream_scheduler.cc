#include "src/sched/stream_scheduler.hh"

#include <algorithm>

namespace conduit::sched
{

StreamScheduler::StreamScheduler(StreamDispatcher &dispatcher,
                                 EventQueue &queue)
    : dispatcher_(dispatcher), queue_(queue)
{
}

void
StreamScheduler::add(ExecContext &ctx, Tick arrival)
{
    ctx.arrival = arrival;
    if (ctx.done()) {
        // Empty program: nothing to dispatch, finished on arrival.
        ctx.finished = true;
        return;
    }
    // Same-tick first dispatches fire in add() order (the queue's
    // sequence numbers give streams their first offloader slots in
    // registration order), after which simulated time takes over.
    // A future arrival tick simply schedules the stream's first
    // dispatch there — the arrival event of an open-loop run.
    queue_.schedule(
        std::max(queue_.now(), arrival),
        [this, &ctx] { onDispatch(ctx); }, kDispatchPriority);
}

void
StreamScheduler::onDispatch(ExecContext &ctx)
{
    const DispatchOutcome out = dispatcher_.dispatchNext(ctx, queue_.now());

    const Tick done = std::max(queue_.now(), out.completion);
    ++ctx.outstanding;
    queue_.schedule(
        done,
        [this, &ctx, done] {
            ctx.execEnd = std::max(ctx.execEnd, done);
            --ctx.outstanding;
            if (ctx.done() && ctx.outstanding == 0) {
                ctx.finished = true;
                if (streamDone_)
                    streamDone_(ctx);
            }
        },
        kCompletionPriority);

    if (!ctx.done()) {
        queue_.schedule(
            std::max(queue_.now(), out.nextDispatch),
            [this, &ctx] { onDispatch(ctx); }, kDispatchPriority);
    }
}

} // namespace conduit::sched
