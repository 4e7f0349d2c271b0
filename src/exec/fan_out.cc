/**
 * @file
 * NodeFanOut implementation.
 */

#include "exec/fan_out.hh"

#include <optional>

#include "exec/parallel.hh"
#include "obs/span.hh"

namespace ahq::exec
{

void
NodeFanOut::run(ThreadPool &pool, std::size_t n, const Label &label,
                const Body &body)
{
    const bool tracing = parent_.tracing();
    const bool tagging = tracing || parent_.series != nullptr;
    const bool profiling = parent_.profiling();
    buffers_ = std::vector<obs::BufferTraceSink>(tracing ? n : 0);
    parallelFor(pool, n, [&](std::size_t i) {
        // A tag is needed when tracing (events say which node they
        // came from) and when a series registry is attached
        // (per-node keys keep concurrent recordings disjoint).
        obs::Scope scope = parent_;
        if (tagging) {
            scope = parent_.tagged(parent_.scenario.empty()
                                       ? label(i)
                                       : parent_.scenario + "/" + label(i));
        }
        if (tracing)
            scope.sink = &buffers_[i];
        std::optional<obs::SpanProfiler> prof;
        if (profiling)
            scope.prof = &prof.emplace();
        body(i, scope);
        if (profiling) {
            prof->flush(scope);
            parent_.prof->merge(*prof);
        }
    });
}

void
NodeFanOut::flush(std::size_t i) const
{
    if (parent_.tracing())
        buffers_[i].flushTo(*parent_.sink);
}

void
NodeFanOut::flushAll() const
{
    for (std::size_t i = 0; i < buffers_.size(); ++i)
        flush(i);
}

} // namespace ahq::exec
