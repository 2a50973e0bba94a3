#include "svc/ping.hh"

#include "common/logging.hh"
#include "driver/result_store.hh"
#include "svc/json.hh"
#include "svc/sim_request.hh"
#include "svc/sim_response.hh"
#include "svc/sim_service.hh"

namespace momsim::svc
{

std::string
serviceVersionString()
{
    return strfmt("req%d/resp%d/rows%d/sim%d", kSimRequestSchemaVersion,
                  kSimResponseSchemaVersion, driver::kResultSchemaVersion,
                  driver::kSimCodeVersion);
}

bool
parsePing(const std::string &line, std::string &id)
{
    JsonValue doc;
    std::string error;
    if (!parseJson(line, doc, error) || !doc.isObject())
        return false;
    const JsonValue *kind = doc.field("kind");
    if (!kind || !kind->isString() || kind->text != "ping")
        return false;
    id.clear();
    for (const auto &f : doc.fields) {
        if (f.first == "id" && f.second.isString())
            id = f.second.text;
        else if (f.first != "kind")
            return false;
    }
    return true;
}

std::string
pongJson(const std::string &id, const SimService &service)
{
    std::string out = "{\"kind\":\"pong\"";
    if (!id.empty())
        out += ",\"id\":" + jsonQuote(id);
    out += ",\"version\":" + jsonQuote(serviceVersionString());
    const driver::PointScheduler::Counters c = service.counters();
    out += strfmt(",\"uptimeMs\":%llu,\"inFlight\":%d",
                  static_cast<unsigned long long>(service.uptimeMs()),
                  service.inFlight());
    out += strfmt(",\"pointsSimulated\":%llu,\"pointsDeduped\":%llu,"
                  "\"memCacheHits\":%llu,\"diskCacheHits\":%llu}",
                  static_cast<unsigned long long>(c.pointsSimulated),
                  static_cast<unsigned long long>(c.pointsDeduped),
                  static_cast<unsigned long long>(c.memCacheHits),
                  static_cast<unsigned long long>(c.diskCacheHits));
    return out;
}

} // namespace momsim::svc
