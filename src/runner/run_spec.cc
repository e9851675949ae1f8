#include "src/runner/run_spec.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace conduit::runner
{

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> out;
    std::istringstream is(csv);
    std::string item;
    while (std::getline(is, item, ',')) {
        // Trim surrounding whitespace.
        const auto b = item.find_first_not_of(" \t");
        const auto e = item.find_last_not_of(" \t");
        if (b != std::string::npos)
            out.push_back(item.substr(b, e - b + 1));
    }
    return out;
}

std::string
joinLabels(const std::vector<std::string> &labels)
{
    std::string joined;
    for (const auto &l : labels) {
        if (!joined.empty())
            joined += ", ";
        joined += l;
    }
    return joined;
}

const std::string *
findUnknown(const std::vector<std::string> &filter,
            const std::vector<std::string> &labels)
{
    for (const auto &f : filter) {
        if (std::find(labels.begin(), labels.end(), f) == labels.end())
            return &f;
    }
    return nullptr;
}

bool
reportUnknown(const std::vector<std::string> &filter,
              const std::vector<std::string> &labels, const char *axis)
{
    const std::string *f = findUnknown(filter, labels);
    if (!f)
        return true;
    std::fprintf(stderr, "unknown %s '%s'; accepted: %s\n", axis,
                 f->c_str(), joinLabels(labels).c_str());
    return false;
}

std::string
displayName(const std::string &label,
            const std::optional<WorkloadId> &id,
            const std::shared_ptr<const Program> &program)
{
    return !label.empty() ? label
        : id              ? workloadName(*id)
        : program         ? program->name
                          : std::string();
}

namespace
{

bool
keeps(const std::vector<std::string> &filter, const std::string &label)
{
    return filter.empty() ||
        std::find(filter.begin(), filter.end(), label) != filter.end();
}

/**
 * Reject filter entries naming no axis label: a typo would otherwise
 * silently drop rows/columns. The error lists what this matrix
 * accepts (mirroring --list-workloads / --list-techniques).
 */
void
validateFilter(const std::vector<std::string> &filter,
               const std::vector<std::string> &labels,
               const char *axis)
{
    if (const std::string *f = findUnknown(filter, labels))
        throw std::invalid_argument(std::string("RunMatrix: unknown ") +
                                    axis + " '" + *f +
                                    "'; accepted: " + joinLabels(labels));
}

} // namespace

RunMatrix &
RunMatrix::config(const SsdConfig &cfg)
{
    config_ = cfg;
    return *this;
}

RunMatrix &
RunMatrix::engine(const EngineOptions &opts)
{
    engine_ = opts;
    return *this;
}

RunMatrix &
RunMatrix::params(const WorkloadParams &p)
{
    params_ = p;
    return *this;
}

RunMatrix &
RunMatrix::workload(WorkloadId id)
{
    workloads_.push_back({workloadName(id), id, nullptr});
    return *this;
}

RunMatrix &
RunMatrix::workloads(const std::vector<WorkloadId> &ids)
{
    for (WorkloadId id : ids)
        workload(id);
    return *this;
}

RunMatrix &
RunMatrix::program(const std::string &label,
                   std::shared_ptr<const Program> prog)
{
    workloads_.push_back({label, std::nullopt, std::move(prog)});
    return *this;
}

RunMatrix &
RunMatrix::technique(const std::string &name)
{
    techniques_.push_back({name, nullptr, HostKind::None});
    return *this;
}

RunMatrix &
RunMatrix::techniques(const std::vector<std::string> &names)
{
    for (const auto &n : names)
        technique(n);
    return *this;
}

RunMatrix &
RunMatrix::technique(const std::string &label, PolicyFactory make)
{
    techniques_.push_back({label, std::move(make), HostKind::None});
    return *this;
}

RunMatrix &
RunMatrix::hostTechnique(const std::string &label, bool gpu)
{
    techniques_.push_back(
        {label, nullptr, gpu ? HostKind::Gpu : HostKind::Cpu});
    return *this;
}

RunMatrix &
RunMatrix::filterWorkloads(const std::string &csv)
{
    workloadFilter_ = splitCsv(csv);
    return *this;
}

RunMatrix &
RunMatrix::filterTechniques(const std::string &csv)
{
    techniqueFilter_ = splitCsv(csv);
    return *this;
}

RunMatrix &
RunMatrix::add(RunSpec spec)
{
    extras_.push_back(std::move(spec));
    return *this;
}

std::vector<std::string>
RunMatrix::workloadLabels() const
{
    std::vector<std::string> labels;
    for (const auto &w : workloads_)
        labels.push_back(w.label);
    for (const auto &e : extras_)
        labels.push_back(e.workload);
    return labels;
}

std::vector<std::string>
RunMatrix::techniqueLabels() const
{
    std::vector<std::string> labels;
    for (const auto &t : techniques_)
        labels.push_back(t.label);
    for (const auto &e : extras_)
        labels.push_back(e.technique);
    return labels;
}

std::vector<RunSpec>
RunMatrix::build() const
{
    validateFilter(workloadFilter_, workloadLabels(), "workload");
    validateFilter(techniqueFilter_, techniqueLabels(), "technique");

    std::vector<RunSpec> specs;
    for (const auto &w : workloads_) {
        if (!keeps(workloadFilter_, w.label))
            continue;
        for (const auto &t : techniques_) {
            if (!keeps(techniqueFilter_, t.label))
                continue;
            RunSpec s;
            s.workload = w.label;
            s.technique = t.label;
            s.config = config_;
            s.engine = engine_;
            s.params = params_;
            s.workloadId = w.id;
            s.program = w.program;
            s.policy = t.policy;
            s.host = t.host;
            specs.push_back(std::move(s));
        }
    }
    for (const auto &e : extras_) {
        if (keeps(workloadFilter_, e.workload) &&
            keeps(techniqueFilter_, e.technique))
            specs.push_back(e);
    }
    return specs;
}

} // namespace conduit::runner
