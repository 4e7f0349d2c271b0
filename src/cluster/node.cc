/**
 * @file
 * Node implementation.
 */

#include "cluster/node.hh"

#include <cassert>

namespace ahq::cluster
{

ColocatedApp
lcAt(apps::AppProfile profile, double load_fraction)
{
    assert(profile.latencyCritical);
    return {std::move(profile),
            std::make_shared<trace::ConstantTrace>(load_fraction)};
}

ColocatedApp
lcWith(apps::AppProfile profile,
       std::shared_ptr<trace::LoadTrace> load)
{
    assert(profile.latencyCritical);
    assert(load != nullptr);
    return {std::move(profile), std::move(load)};
}

ColocatedApp
be(apps::AppProfile profile)
{
    assert(!profile.latencyCritical);
    return {std::move(profile), nullptr};
}

Node::Node(machine::MachineConfig config, std::vector<ColocatedApp> apps)
    : config_(std::move(config)), apps_(std::move(apps))
{
    assert(config_.valid());
    assert(!apps_.empty());
    for (int i = 0; i < numApps(); ++i) {
        const auto &a = apps_[static_cast<std::size_t>(i)];
        if (a.profile.latencyCritical) {
            assert(a.load != nullptr &&
                   "LC apps need a load trace");
            lc.push_back(i);
        } else {
            be_.push_back(i);
        }
    }
}

const apps::AppProfile &
Node::profile(machine::AppId id) const
{
    assert(id >= 0 && id < numApps());
    return apps_[static_cast<std::size_t>(id)].profile;
}

double
Node::loadAt(machine::AppId id, double time_s) const
{
    assert(id >= 0 && id < numApps());
    const auto &a = apps_[static_cast<std::size_t>(id)];
    return a.profile.latencyCritical ? a.load->at(time_s) : 0.0;
}

std::vector<perf::AppDemand>
Node::demandsAt(double time_s) const
{
    std::vector<perf::AppDemand> demands;
    demandsAt(time_s, demands);
    return demands;
}

void
Node::demandsAt(double time_s,
                std::vector<perf::AppDemand> &demands) const
{
    demands.clear();
    demands.reserve(apps_.size());
    for (int i = 0; i < numApps(); ++i)
        demands.push_back(
            apps_[static_cast<std::size_t>(i)].profile.toDemand(
                loadAt(i, time_s)));
}

std::vector<sched::AppObservation>
Node::staticObservations() const
{
    std::vector<sched::AppObservation> obs;
    obs.reserve(apps_.size());
    for (int i = 0; i < numApps(); ++i) {
        const auto &p = apps_[static_cast<std::size_t>(i)].profile;
        sched::AppObservation o;
        o.id = i;
        o.latencyCritical = p.latencyCritical;
        o.threads = p.threads;
        o.thresholdMs = p.tailThresholdMs;
        o.ipcSolo = p.ipcSolo;
        obs.push_back(o);
    }
    return obs;
}

std::string
Node::describe() const
{
    std::string out;
    for (machine::AppId id : lc) {
        if (!out.empty())
            out += '+';
        out += profile(id).name;
    }
    if (!be_.empty()) {
        if (!out.empty())
            out += '|';
        out += "be:";
        bool first = true;
        for (machine::AppId id : be_) {
            if (!first)
                out += '+';
            out += profile(id).name;
            first = false;
        }
    }
    return out;
}

} // namespace ahq::cluster
