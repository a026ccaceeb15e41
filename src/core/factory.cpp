#include "core/factory.hpp"

namespace volsched::core {

const std::vector<std::string>& all_heuristic_names() {
    static const std::vector<std::string> names = {
        "emct",     "emct*",    "mct",      "mct*",    "ud*",
        "ud",       "lw*",      "lw",       "random1w", "random2w",
        "random3w", "random4w", "random1",  "random2",  "random3",
        "random4",  "random"};
    return names;
}

const std::vector<std::string>& greedy_heuristic_names() {
    static const std::vector<std::string> names = {
        "mct", "mct*", "emct", "emct*", "lw", "lw*", "ud", "ud*"};
    return names;
}

const std::vector<std::string>& extension_heuristic_names() {
    static const std::vector<std::string> names = {"hybrid", "thr50:emct",
                                                   "thr50:mct", "thr25:emct"};
    return names;
}

} // namespace volsched::core
