#include "rowcheck.hh"

#include <fstream>
#include <initializer_list>

namespace perfbench
{

namespace
{

/** Index one past the JSON string starting at @p i (a '"'), or npos. */
size_t
skipString(const std::string &s, size_t i)
{
    for (++i; i < s.size(); ++i) {
        if (s[i] == '\\')
            ++i;
        else if (s[i] == '"')
            return i + 1;
    }
    return std::string::npos;
}

struct Member
{
    std::string name;
    size_t begin = 0;   ///< first byte of the member's key
    size_t end = 0;     ///< one past the member's value
};

/** The members of the flat object @p row; false if it is not one. */
bool
members(const std::string &row, std::vector<Member> &out)
{
    out.clear();
    if (row.size() < 2 || row.front() != '{' || row.back() != '}')
        return false;
    size_t i = 1;
    if (row[i] == '}')
        return i + 1 == row.size();
    for (;;) {
        if (row[i] != '"')
            return false;
        Member m;
        m.begin = i;
        size_t keyEnd = skipString(row, i);
        if (keyEnd == std::string::npos || keyEnd >= row.size() ||
            row[keyEnd] != ':')
            return false;
        m.name = row.substr(i + 1, keyEnd - i - 2);
        i = keyEnd + 1;
        if (i >= row.size())
            return false;
        if (row[i] == '"') {
            i = skipString(row, i);
            if (i == std::string::npos)
                return false;
        } else {
            while (i < row.size() && row[i] != ',' && row[i] != '}') {
                if (row[i] == '{' || row[i] == '[' || row[i] == '"')
                    return false;
                ++i;
            }
        }
        if (i >= row.size() || i == m.begin)
            return false;
        m.end = i;
        out.push_back(std::move(m));
        if (row[i] == '}')
            return i + 1 == row.size();
        ++i;    // ','
        if (i >= row.size())
            return false;
    }
}

/** @p row without the named members; "" if it is not a flat object. */
std::string
stripFields(const std::string &row, std::initializer_list<const char *> names)
{
    std::vector<Member> ms;
    if (!members(row, ms))
        return "";
    std::string out = "{";
    bool first = true;
    for (const Member &m : ms) {
        bool drop = false;
        for (const char *n : names)
            drop = drop || m.name == n;
        if (drop)
            continue;
        if (!first)
            out += ',';
        out.append(row, m.begin, m.end - m.begin);
        first = false;
    }
    out += '}';
    return out;
}

/** Raw text of top-level member @p name of a flat object. */
bool
memberText(const std::string &row, const char *name, std::string &out)
{
    std::vector<Member> ms;
    if (!members(row, ms))
        return false;
    for (const Member &m : ms) {
        if (m.name == name) {
            size_t v = m.begin + m.name.size() + 3;     // "name":
            out = row.substr(v, m.end - v);
            return true;
        }
    }
    return false;
}

/** The objects of a reply's "rows" array; false if malformed. */
bool
splitRows(const std::string &reply, std::vector<std::string> &rows)
{
    rows.clear();
    static const char kRows[] = "\"rows\":[";
    size_t i = reply.find(kRows);
    if (i == std::string::npos)
        return false;
    i += sizeof(kRows) - 1;
    while (i < reply.size()) {
        if (reply[i] == ']')
            return reply.compare(i, std::string::npos, "]}") == 0;
        if (reply[i] == ',' && !rows.empty())
            ++i;
        if (i >= reply.size() || reply[i] != '{')
            return false;
        size_t j = i + 1;
        while (j < reply.size() && reply[j] != '}') {
            if (reply[j] == '"') {
                j = skipString(reply, j);
                if (j == std::string::npos)
                    return false;
            } else if (reply[j] == '{') {
                return false;
            } else {
                ++j;
            }
        }
        if (j >= reply.size())
            return false;
        rows.push_back(reply.substr(i, j + 1 - i));
        i = j + 1;
    }
    return false;
}

bool
loadTsv(const std::string &path,
        std::unordered_map<std::string, std::string> &out,
        std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read " + path;
        return false;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        size_t tab = line.find('\t');
        if (tab == std::string::npos) {
            error = path + ": line without a tab";
            return false;
        }
        out[line.substr(0, tab)] = line.substr(tab + 1);
    }
    return true;
}

} // namespace

std::string
normalizeRow(const std::string &row)
{
    return stripFields(row, { "sim_kcps", "wall_ms" });
}

bool
RowRefs::loadShapes(const std::string &path, std::string &error)
{
    return loadTsv(path, _shapes, error);
}

bool
RowRefs::checkRow(const std::string &row, uint64_t cap, std::string &why)
{
    const std::string norm = normalizeRow(row);
    std::string id, seed;
    if (norm.empty() || !memberText(norm, "id", id) ||
        !memberText(norm, "seed", seed)) {
        why = "unparseable row";
        return false;
    }
    if (id.size() >= 2 && id.front() == '"')
        id = id.substr(1, id.size() - 2);
    if (!_shapes.empty()) {
        const std::string shape = id + "@" + std::to_string(cap);
        auto it = _shapes.find(shape);
        if (it == _shapes.end()) {
            why = "no reference row for " + shape;
            return false;
        }
        if (stripFields(norm, { "seed" }) != it->second) {
            why = "row differs from the reference for " + shape;
            return false;
        }
    }
    const std::string key = id + "#" + seed;
    std::lock_guard<std::mutex> lock(_mutex);
    auto ins = _exact.emplace(key, norm);
    if (!ins.second && ins.first->second != norm) {
        why = "replies disagree on " + key;
        return false;
    }
    return true;
}

bool
checkReply(const std::string &reply, const ScriptLine &request,
           RowRefs &refs, std::string &why)
{
    const std::string head = "{\"schemaVersion\":1,\"id\":\"" + request.id +
                             "\",";
    if (reply.compare(0, head.size(), head) != 0) {
        why = "reply does not echo id " + request.id;
        return false;
    }
    const size_t rowsAt = reply.find("\"rows\":[");
    const size_t okAt = reply.find("\"ok\":true,", head.size());
    if (okAt == std::string::npos || rowsAt == std::string::npos ||
        okAt > rowsAt) {
        why = reply.find("\"ok\":false") != std::string::npos
                  ? "ok:false reply: " + reply.substr(0, 160)
                  : "unparseable reply";
        return false;
    }
    const std::string total = "\"plan\":{\"total\":" +
                              std::to_string(request.points) + ",";
    const size_t planAt = reply.find(total, okAt);
    if (planAt == std::string::npos || planAt > rowsAt) {
        why = "reply plans the wrong number of points";
        return false;
    }
    std::vector<std::string> rows;
    if (!splitRows(reply, rows)) {
        why = "unparseable rows";
        return false;
    }
    if (rows.size() != request.points) {
        why = "reply carries " + std::to_string(rows.size()) +
              " rows, want " + std::to_string(request.points);
        return false;
    }
    for (const std::string &row : rows) {
        if (!refs.checkRow(row, request.cap, why))
            return false;
    }
    return true;
}

} // namespace perfbench
