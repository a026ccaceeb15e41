#include "exp/status.hpp"

#include <exception>

#include "util/atomic_io.hpp"
#include "util/json.hpp"

namespace volsched::exp {
namespace {

void field(std::string& out, const char* key, long long value,
           bool first = false) {
    if (!first) out += ',';
    out += '"';
    out += key;
    out += "\":";
    out += std::to_string(value);
}

void stage(std::string& out, const char* key, const StageStats& s) {
    out += ",\"";
    out += key;
    out += "\":{";
    field(out, "count", s.count, /*first=*/true);
    field(out, "total_us", s.total_us);
    field(out, "max_us", s.max_us);
    out += '}';
}

StageStats parse_stage(const util::json::Value& v) {
    StageStats s;
    s.count = v.at("count").as_i64();
    s.total_us = v.at("total_us").as_i64();
    s.max_us = v.at("max_us").as_i64();
    return s;
}

} // namespace

std::filesystem::path status_path(const std::filesystem::path& shard_dir) {
    return shard_dir / "status.json";
}

std::string status_to_json(const ShardStatus& s) {
    std::string out = "{";
    field(out, "shard", s.shard, /*first=*/true);
    field(out, "shards", s.shards);
    field(out, "jobs_done", s.jobs_done);
    field(out, "jobs_total", s.jobs_total);
    field(out, "instances_done", s.instances_done);
    field(out, "queue_depth", s.queue_depth);
    field(out, "emitter_lag", s.emitter_lag);
    field(out, "window", s.window);
    out += ",\"state\":\"" + util::json::escape(s.state) + "\"";
    stage(out, "run", s.run);
    stage(out, "serialize", s.serialize);
    stage(out, "fsync", s.fsync);
    out += '}';
    return out;
}

void write_status(const std::filesystem::path& shard_dir,
                  const ShardStatus& s) {
    util::write_file_atomic(status_path(shard_dir), status_to_json(s));
}

std::optional<ShardStatus> read_status(
    const std::filesystem::path& shard_dir) {
    std::string text;
    try {
        text = util::read_text_file(status_path(shard_dir));
    } catch (const std::exception&) {
        return std::nullopt; // no heartbeat yet (or unreadable): not an error
    }
    try {
        const auto v = util::json::Value::parse(text);
        ShardStatus s;
        s.shard = v.at("shard").as_int();
        s.shards = v.at("shards").as_int();
        s.jobs_done = v.at("jobs_done").as_i64();
        s.jobs_total = v.at("jobs_total").as_i64();
        s.instances_done = v.at("instances_done").as_i64();
        s.queue_depth = v.at("queue_depth").as_i64();
        s.emitter_lag = v.at("emitter_lag").as_i64();
        s.window = v.at("window").as_i64();
        s.state = v.at("state").as_string();
        s.run = parse_stage(v.at("run"));
        s.serialize = parse_stage(v.at("serialize"));
        s.fsync = parse_stage(v.at("fsync"));
        return s;
    } catch (const std::exception&) {
        // Torn or half-written heartbeats cannot happen through
        // write_file_atomic, but a hand-edited or foreign file can; treat
        // anything unparsable as "no heartbeat".
        return std::nullopt;
    }
}

} // namespace volsched::exp
