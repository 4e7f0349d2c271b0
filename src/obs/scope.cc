/**
 * @file
 * Event rendering into the thread's reused strings (see the Event
 * doc in scope.hh for the nesting rule).
 */

#include "obs/scope.hh"

#include <deque>

#include "obs/json.hh"

namespace ahq::obs
{

/** The strings one nesting depth of Events builds in. */
struct EventStrings
{
    std::string payload;
    std::string line;
};

namespace
{

/**
 * One entry per depth of open Events on this thread. A deque never
 * moves its elements when it grows, so opening a deeper Event
 * leaves the strings an outer one holds where they are.
 */
thread_local std::deque<EventStrings> t_strings;
thread_local std::size_t t_depth = 0;

EventStrings &
openDepth()
{
    if (t_depth == t_strings.size())
        t_strings.emplace_back();
    return t_strings[t_depth++];
}

} // namespace

Event::Event(std::string_view type) : Event(type, openDepth()) {}

Event::Event(std::string_view type, EventStrings &strings)
    : type_(type), payload_(strings.payload), line_(strings.line)
{
    payload_.clear();
}

Event::~Event()
{
    --t_depth;
}

void
Event::key(std::string_view k)
{
    payload_.push_back(',');
    json::appendString(payload_, k);
    payload_.push_back(':');
}

Event &
Event::num(std::string_view k, double v)
{
    key(k);
    json::appendNumber(payload_, v);
    return *this;
}

Event &
Event::integer(std::string_view k, long long v)
{
    key(k);
    json::appendNumber(payload_, v);
    return *this;
}

Event &
Event::str(std::string_view k, std::string_view v)
{
    key(k);
    json::appendString(payload_, v);
    return *this;
}

Event &
Event::nums(std::string_view k, const std::vector<double> &v)
{
    key(k);
    payload_.push_back('[');
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i > 0)
            payload_.push_back(',');
        json::appendNumber(payload_, v[i]);
    }
    payload_.push_back(']');
    return *this;
}

Event &
Event::ints(std::string_view k, const std::vector<int> &v)
{
    key(k);
    payload_.push_back('[');
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i > 0)
            payload_.push_back(',');
        json::appendNumber(payload_,
                           static_cast<long long>(v[i]));
    }
    payload_.push_back(']');
    return *this;
}

Event &
Event::strs(std::string_view k, const std::vector<std::string> &v)
{
    key(k);
    payload_.push_back('[');
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i > 0)
            payload_.push_back(',');
        json::appendString(payload_, v[i]);
    }
    payload_.push_back(']');
    return *this;
}

std::string_view
Event::render(std::string_view scenario, int epoch) const
{
    line_.clear();
    line_ += "{\"v\":";
    json::appendNumber(line_,
                       static_cast<long long>(kSchemaVersion));
    line_ += ",\"type\":";
    json::appendString(line_, type_);
    if (!scenario.empty()) {
        line_ += ",\"scenario\":";
        json::appendString(line_, scenario);
    }
    if (epoch >= 0) {
        line_ += ",\"epoch\":";
        json::appendNumber(line_, static_cast<long long>(epoch));
    }
    line_ += payload_;
    line_.push_back('}');
    return line_;
}

} // namespace ahq::obs
