#include "src/core/program_cache.hh"

namespace conduit
{

std::shared_ptr<const VectorizedProgram>
ProgramCache::get(WorkloadId id, const WorkloadParams &params,
                  const SsdConfig &cfg)
{
    const Key key{static_cast<int>(id), params.scale, cfg.vectorLanes,
                  cfg.nand.pageBytes};

    std::promise<std::shared_ptr<const VectorizedProgram>> promise;
    std::shared_future<std::shared_ptr<const VectorizedProgram>> fut;
    bool compile_here = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = cache_.find(key);
        if (it == cache_.end()) {
            fut = promise.get_future().share();
            cache_.emplace(key, fut);
            compile_here = true;
        } else {
            fut = it->second;
        }
    }

    if (compile_here) {
        // Compile outside the lock; racers on the same key block on
        // the shared future instead of recompiling.
        try {
            const Vectorizer vectorizer(vectorizeOptions(cfg));
            promise.set_value(
                std::make_shared<const VectorizedProgram>(
                    vectorizer.run(buildWorkload(id, params))));
        } catch (...) {
            // Hand waiters the real error and drop the entry so a
            // later call can retry instead of seeing broken_promise.
            promise.set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(mu_);
            cache_.erase(key);
        }
    }
    return fut.get();
}

std::size_t
ProgramCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.size();
}

} // namespace conduit
