/**
 * @file
 * Shared command-line handling of perfbench_tool's subcommands.
 */

#ifndef PERFBENCH_TOOL_HH
#define PERFBENCH_TOOL_HH

#include <cstdlib>
#include <map>
#include <string>

namespace perfbench
{

/** "--flag value" pairs; a flag followed by another flag is a switch. */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 0; i < argc; ++i) {
            std::string key = argv[i];
            bool hasValue = i + 1 < argc &&
                            std::string(argv[i + 1]).rfind("--", 0) != 0;
            _values[key] = hasValue ? argv[++i] : "";
        }
    }

    bool has(const std::string &key) const { return _values.count(key) != 0; }

    std::string get(const std::string &key) const
    {
        auto it = _values.find(key);
        return it == _values.end() ? "" : it->second;
    }

    double number(const std::string &key, double fallback) const
    {
        return has(key) ? std::strtod(get(key).c_str(), nullptr) : fallback;
    }

  private:
    std::map<std::string, std::string> _values;
};

/** @p s as a JSON string literal. */
inline std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out + "\"";
}

int runClient(const Args &args);
int runTrace(const Args &args);
int runSelftest();

} // namespace perfbench

#endif // PERFBENCH_TOOL_HH
