/**
 * @file
 * Multi-class region simulator implementation.
 *
 * Dispatch discipline:
 *  - an arriving LC request first takes an idle private server of
 *    its class, then an idle shared server, then preempts a shared
 *    server running BE work; otherwise it queues (per-class FIFO,
 *    served globally oldest-first), subject to the class's
 *    concurrency cap;
 *  - a completing private server serves its own class's queue;
 *  - a completing shared server serves the oldest eligible queued
 *    LC request of any class, else takes a BE chunk;
 *  - BE work saturates: idle shared servers always run BE chunks
 *    (when a BE rate is configured), and preempted chunks are
 *    discarded (memoryless service makes the restart equivalent).
 */

#include "sim/multiclass_sim.hh"

#include <algorithm>
#include <cassert>
#include <deque>

namespace ahq::sim
{

namespace
{

struct Server
{
    enum class What { Idle, Lc, Be };
    What what = What::Idle;
    int lcClass = -1;          // valid when what == Lc
    std::uint64_t generation = 0; // invalidates stale events
    bool shared = false;
};

struct Pending
{
    double arrival;
    int cls;
};

} // namespace

MultiClassSimulator::MultiClassSimulator(
    std::vector<LcClassSpec> classes, int shared_servers,
    double be_chunk_rate)
    : classes_(std::move(classes)), sharedServers(shared_servers),
      beChunkRate(be_chunk_rate)
{
    assert(shared_servers >= 0);
    assert(be_chunk_rate >= 0.0);
    for (const auto &c : classes_) {
        assert(c.arrivalRate >= 0.0);
        assert(c.serviceRate > 0.0);
        assert(c.isolatedServers >= 0);
        assert(c.maxConcurrency >= 1);
        (void)c;
    }
}

MultiClassResult
MultiClassSimulator::run(double duration, stats::Rng &rng,
                         double warmup) const
{
    Simulator sim;
    MultiClassResult res;
    res.measuredSeconds = std::max(0.0, duration - warmup);
    res.lcSojournTimes.resize(classes_.size());

    // Server table: per-class private blocks, then the shared pool.
    std::vector<Server> servers;
    std::vector<std::pair<std::size_t, std::size_t>> private_range;
    for (const auto &c : classes_) {
        private_range.emplace_back(
            servers.size(),
            servers.size() + static_cast<std::size_t>(
                                 c.isolatedServers));
        for (int s = 0; s < c.isolatedServers; ++s)
            servers.push_back({});
    }
    const std::size_t shared_begin = servers.size();
    for (int s = 0; s < sharedServers; ++s) {
        Server sv;
        sv.shared = true;
        servers.push_back(sv);
    }
    const std::size_t shared_end = servers.size();

    std::vector<std::deque<Pending>> queues(classes_.size());
    std::vector<int> in_service(classes_.size(), 0);

    std::function<void(std::size_t)> start_be;
    std::function<void(std::size_t, Pending)> start_lc;
    std::function<void(std::size_t)> server_freed;

    auto oldest_eligible = [&]() -> int {
        int best = -1;
        for (std::size_t c = 0; c < classes_.size(); ++c) {
            if (queues[c].empty())
                continue;
            if (in_service[c] >=
                classes_[c].maxConcurrency)
                continue;
            if (best < 0 ||
                queues[c].front().arrival <
                    queues[static_cast<std::size_t>(best)]
                        .front().arrival) {
                best = static_cast<int>(c);
            }
        }
        return best;
    };

    start_be = [&](std::size_t s) {
        if (beChunkRate <= 0.0) {
            servers[s].what = Server::What::Idle;
            ++servers[s].generation;
            return;
        }
        servers[s].what = Server::What::Be;
        servers[s].lcClass = -1;
        const std::uint64_t gen = ++servers[s].generation;
        sim.scheduleAfter(rng.exponential(beChunkRate),
                          [&, s, gen]() {
            if (servers[s].generation != gen)
                return;
            if (sim.now() <= duration &&
                sim.now() >= warmup)
                ++res.beChunksCompleted;
            server_freed(s);
        });
    };

    start_lc = [&](std::size_t s, Pending req) {
        servers[s].what = Server::What::Lc;
        servers[s].lcClass = req.cls;
        const std::uint64_t gen = ++servers[s].generation;
        ++in_service[static_cast<std::size_t>(req.cls)];
        const double svc = rng.exponential(
            classes_[static_cast<std::size_t>(req.cls)]
                .serviceRate);
        sim.scheduleAfter(svc, [&, s, gen, req, svc]() {
            if (servers[s].generation != gen)
                return;
            --in_service[static_cast<std::size_t>(req.cls)];
            res.lcBusySeconds += svc;
            if (req.arrival >= warmup) {
                res.lcSojournTimes[static_cast<std::size_t>(
                                       req.cls)]
                    .push_back(sim.now() - req.arrival);
            }
            server_freed(s);
        });
    };

    server_freed = [&](std::size_t s) {
        servers[s].what = Server::What::Idle;
        if (!servers[s].shared) {
            // A private server serves only its own class.
            for (std::size_t c = 0; c < classes_.size(); ++c) {
                const auto &[lo, hi] = private_range[c];
                if (s >= lo && s < hi) {
                    if (!queues[c].empty() &&
                        in_service[c] <
                            classes_[c].maxConcurrency) {
                        Pending req = queues[c].front();
                        queues[c].pop_front();
                        start_lc(s, req);
                    }
                    return;
                }
            }
            return;
        }
        // A shared server serves the globally oldest eligible LC
        // request, else BE work.
        const int cls = oldest_eligible();
        if (cls >= 0) {
            Pending req =
                queues[static_cast<std::size_t>(cls)].front();
            queues[static_cast<std::size_t>(cls)].pop_front();
            start_lc(s, req);
        } else {
            start_be(s);
        }
    };

    auto place_arrival = [&](int cls) {
        const auto c = static_cast<std::size_t>(cls);
        const Pending req{sim.now(), cls};
        ++res.lcArrivals;
        if (in_service[c] < classes_[c].maxConcurrency) {
            // Private servers first.
            const auto &[lo, hi] = private_range[c];
            for (std::size_t s = lo; s < hi; ++s) {
                if (servers[s].what == Server::What::Idle) {
                    start_lc(s, req);
                    return;
                }
            }
            // Idle shared server.
            for (std::size_t s = shared_begin; s < shared_end;
                 ++s) {
                if (servers[s].what == Server::What::Idle) {
                    start_lc(s, req);
                    return;
                }
            }
            // Preempt BE work on a shared server.
            for (std::size_t s = shared_begin; s < shared_end;
                 ++s) {
                if (servers[s].what == Server::What::Be) {
                    start_lc(s, req);
                    return;
                }
            }
        }
        queues[c].push_back(req);
    };

    // Arrival processes.
    std::function<void(int)> arrive = [&](int cls) {
        place_arrival(cls);
        const double rate =
            classes_[static_cast<std::size_t>(cls)].arrivalRate;
        if (rate > 0.0) {
            const double gap = rng.exponential(rate);
            if (sim.now() + gap <= duration)
                sim.scheduleAfter(gap, [&, cls]() { arrive(cls); });
        }
    };

    for (std::size_t c = 0; c < classes_.size(); ++c) {
        if (classes_[c].arrivalRate > 0.0) {
            sim.schedule(rng.exponential(classes_[c].arrivalRate),
                         [&, c]() {
                             arrive(static_cast<int>(c));
                         });
        }
    }
    if (beChunkRate > 0.0) {
        for (std::size_t s = shared_begin; s < shared_end; ++s)
            start_be(s);
    }

    sim.run(duration);
    for (std::size_t c = 0; c < classes_.size(); ++c)
        res.lcInSystem += queues[c].size() +
            static_cast<std::uint64_t>(in_service[c]);
    return res;
}

} // namespace ahq::sim
