#include "data/revision_io.h"

#include "data/pair_codec.h"
#include "json/jsonl.h"

namespace coachlm {

Status SaveRevisions(const std::string& path,
                     const RevisionDataset& records) {
  std::string out;
  for (const RevisionRecord& record : records) {
    AppendRevisionJson(record.original, record.revised, &out);
    out += '\n';
  }
  return json::WriteFile(path, out);
}

Result<RevisionDataset> LoadRevisions(const std::string& path) {
  const json::ParseLimits& limits = json::ParseLimits::Default();
  COACHLM_ASSIGN_OR_RETURN(
      const std::string text,
      json::ReadFileLimited(path, limits.max_input_bytes));
  COACHLM_ASSIGN_OR_RETURN(RevisionDataset records,
                           ReadRevisionLines(text, limits));
  for (RevisionRecord& record : records) record.RecomputeDerived();
  return records;
}

}  // namespace coachlm
