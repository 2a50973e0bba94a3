#include "script.hh"

#include <cstdlib>
#include <fstream>

namespace perfbench
{

namespace
{

bool
parseCount(const std::string &tok, uint64_t limit, uint64_t &out)
{
    if (tok.empty() || tok.size() > 20)
        return false;
    char *end = nullptr;
    unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    if (!end || *end != '\0' || v > limit)
        return false;
    out = v;
    return true;
}

} // namespace

bool
loadScript(const std::string &path, Script &out, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read script " + path;
        return false;
    }
    out.clear();
    std::string line;
    size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::vector<std::string> cols;
        size_t start = 0;
        for (int i = 0; i < 5; ++i) {
            size_t tab = line.find('\t', start);
            if (tab == std::string::npos)
                break;
            cols.push_back(line.substr(start, tab - start));
            start = tab + 1;
        }
        uint64_t conn = 0, points = 0, cap = 0;
        if (cols.size() != 5 || !parseCount(cols[0], 64, conn) ||
            !parseCount(cols[2], 1 << 20, points) ||
            !parseCount(cols[3], ~0ull, cap) || start >= line.size()) {
            error = path + ":" + std::to_string(lineNo) +
                    ": malformed script line";
            return false;
        }
        if (out.size() <= conn)
            out.resize(conn + 1);
        ScriptLine s;
        s.kind = cols[1];
        s.points = static_cast<size_t>(points);
        s.cap = cap;
        s.id = cols[4];
        s.json = line.substr(start);
        out[conn].push_back(std::move(s));
    }
    if (out.empty()) {
        error = "empty script " + path;
        return false;
    }
    return true;
}

} // namespace perfbench
