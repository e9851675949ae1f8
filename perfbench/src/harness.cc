#include "harness.hh"

#include <algorithm>
#include <malloc.h>
#include <random>
#include <stdexcept>
#include <unordered_map>

namespace perfbench
{

double
referenceSeconds()
{
    const auto t0 = Clock::now();
    std::size_t entries = 0;
    {
        std::vector<std::uint64_t> keys(1u << 19);
        std::mt19937_64 rng(12345);
        for (std::uint64_t &k : keys)
            k = rng();
        std::sort(keys.begin(), keys.end());
        std::unordered_map<std::uint64_t, std::uint64_t> table;
        for (std::size_t i = 0; i < (1u << 17); ++i)
            table[keys[(i * 7919) % keys.size()]] += i;
        entries = table.size();
    }
    const double dt = since(t0);
    // Hand the freed table nodes back so they never count towards
    // the simulator's peak resident set.
    malloc_trim(0);
    if (entries == 0)
        throw std::logic_error("reference kernel did no work");
    return dt;
}

void
Digest::add(const conduit::RunResult &r)
{
    add(r.workload);
    add(r.policy);
    add(static_cast<std::uint64_t>(r.execTime));
    add(r.instrCount);
    for (std::uint64_t n : r.perResource)
        add(n);
    // Histogram summary without percentile(), which sorts per call.
    add(static_cast<std::uint64_t>(r.latencyUs.count()));
    add(r.latencyUs.sum());
    add(r.latencyUs.min());
    add(r.latencyUs.max());
    add(r.dmEnergyJ);
    add(r.computeEnergyJ);
    add(static_cast<std::uint64_t>(r.computeBusy));
    add(static_cast<std::uint64_t>(r.internalDmBusy));
    add(static_cast<std::uint64_t>(r.flashReadBusy));
    add(static_cast<std::uint64_t>(r.hostDmBusy));
    add(static_cast<std::uint64_t>(r.offloaderBusy));
    add(r.faultsInjected);
    add(r.replays);
    add(r.coherenceCommits);
    add(r.latchEvictions);
}

void
Digest::add(const conduit::JobResult &j)
{
    add(j.id);
    add(static_cast<std::uint64_t>(j.arrival));
    add(static_cast<std::uint64_t>(j.admitted));
    add(static_cast<std::uint64_t>(j.end));
    add(j.basePage);
    add(j.pages);
    add(j.result);
}

Recorder::Scope::Scope(Recorder *r, const char *name, int cell) : r_(r)
{
    if (!r_)
        return;
    const int parent = r_->open_.empty() ? -1 : r_->open_.back();
    const double t = since(r_->t0_);
    id_ = static_cast<int>(r_->spans_.size());
    r_->spans_.push_back({name, t, t, parent, r_->rep_, cell});
    r_->open_.push_back(id_);
}

Recorder::Scope::~Scope()
{
    if (!r_)
        return;
    r_->spans_[static_cast<std::size_t>(id_)].end = since(r_->t0_);
    r_->open_.pop_back();
}

void
Recorder::beginRep(int rep)
{
    rep_ = rep;
}

std::map<std::string, double>
Recorder::spanTotals(int rep) const
{
    std::map<std::string, double> out;
    for (const Span &s : spans_)
        if (s.rep == rep)
            out[s.name] += s.end - s.start;
    return out;
}

std::map<std::string, double>
Recorder::selfTotals() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += self[i];
    return out;
}

void
Recorder::writeSpans(std::ostream &os) const
{
    os << "name,start_s,end_s,parent,rep,cell\n";
    for (const Span &s : spans_)
        os << s.name << ',' << s.start << ',' << s.end << ','
           << s.parent << ',' << s.rep << ',' << s.cell << '\n';
}

std::map<std::string, double>
counterValues(const conduit::StatSet &stats)
{
    std::map<std::string, double> out;
    for (const auto &[name, c] : stats.counters())
        out[name] = static_cast<double>(c.value());
    return out;
}

void
recordCounters(Recorder &rec, const std::map<std::string, double> &before,
               const conduit::StatSet &after)
{
    for (const auto &[name, v] : counterValues(after)) {
        const auto it = before.find(name);
        rec.count(name, v - (it == before.end() ? 0.0 : it->second));
    }
}

void
recordOccupancy(Recorder &rec, const conduit::trace::Tracer &occupancy)
{
    static const char *const busyName[conduit::kNumTargets] = {
        "isp.busy", "pud.busy", "nand.die_busy"};
    conduit::Tick busy[conduit::kNumTargets] = {};
    for (const conduit::trace::Event &e : occupancy.events())
        if (e.kind == conduit::trace::EventKind::Instr &&
            e.c < conduit::kNumTargets)
            busy[e.c] += e.end - e.start;
    for (std::size_t t = 0; t < conduit::kNumTargets; ++t)
        rec.count(busyName[t], conduit::ticksToUs(busy[t]));
}

std::shared_ptr<conduit::trace::Tracer>
occupancyTracer()
{
    conduit::trace::TraceConfig cfg;
    cfg.categories =
        static_cast<std::uint32_t>(conduit::trace::Category::Occupancy);
    return std::make_shared<conduit::trace::Tracer>(cfg);
}

} // namespace perfbench
