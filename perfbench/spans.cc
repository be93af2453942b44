#include "spans.h"

#include <algorithm>
#include <utility>

#include "obs/json.h"

namespace perfbench {

std::vector<double> SelfTimesMs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<std::size_t>(span.parent)];
    const std::int64_t start = std::max(span.start_ns, parent.start_ns);
    const std::int64_t end = std::min(span.end_ns, parent.end_ns);
    if (start < end) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(start, end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<std::int64_t, std::int64_t>>& intervals =
        children[i];
    std::sort(intervals.begin(), intervals.end());
    // Children may overlap (a parent waiting on work on several threads),
    // so subtract their union, not their sum.
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].start_ns;
    for (const auto& [start, end] : intervals) {
      const std::int64_t from = std::max(start, reach);
      if (end > from) {
        covered += end - from;
        reach = end;
      }
    }
    self[i] =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns - covered) /
        1e6;
  }
  return self;
}

std::map<std::string, LayerTime> LayerTimes(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimesMs(spans);
  std::map<std::string, LayerTime> layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& layer = layers[spans[i].name];
    ++layer.count;
    layer.total_ms += spans[i].ms();
    layer.self_ms += self[i];
  }
  return layers;
}

std::string SpansToJson(const std::vector<Span>& spans) {
  freshsel::obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("layers");
  writer.BeginObject();
  for (const auto& [name, layer] : LayerTimes(spans)) {
    writer.Key(name);
    writer.BeginObject();
    writer.Field("count", static_cast<std::uint64_t>(layer.count));
    writer.Field("total_ms", layer.total_ms);
    writer.Field("self_ms", layer.self_ms);
    writer.EndObject();
  }
  writer.EndObject();
  writer.Key("spans");
  writer.BeginArray();
  for (const Span& span : spans) {
    writer.BeginObject();
    writer.Field("name", span.name);
    writer.Field("tag", span.tag);
    writer.Key("start_ns");
    writer.Int(span.start_ns);
    writer.Key("end_ns");
    writer.Int(span.end_ns);
    writer.Key("parent");
    writer.Int(span.parent);
    writer.Field("request", span.request);
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  return writer.TakeString();
}

}  // namespace perfbench
