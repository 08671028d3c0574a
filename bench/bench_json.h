// Minimal JSON-lines record builder for the bench binaries.
//
// Split out of bench_common.h (which drags in google-benchmark) so the
// emitter can be unit-tested: CI parses the artifact files these produce,
// so the output must be VALID JSON even for hostile inputs -- matrix names
// containing quotes or backslashes, control characters from a mangled
// title line, and non-finite measurements (a failed run's NaN residual),
// which JSON has no literal for and are emitted as null.
// The --json plumbing (flag stripping, appending records to the artifact
// file) lives here too -- one escaping/NaN policy for every artifact CI
// parses.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

namespace plu::bench {

/// One flat JSON object built field by field; str() renders it.
class JsonRecord {
 public:
  JsonRecord& field(const char* key, const std::string& v) {
    add_key(key);
    body_ += '"';
    for (char c : v) {
      switch (c) {
        case '"':
          body_ += "\\\"";
          break;
        case '\\':
          body_ += "\\\\";
          break;
        case '\b':
          body_ += "\\b";
          break;
        case '\f':
          body_ += "\\f";
          break;
        case '\n':
          body_ += "\\n";
          break;
        case '\r':
          body_ += "\\r";
          break;
        case '\t':
          body_ += "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            body_ += buf;
          } else {
            body_ += c;
          }
      }
    }
    body_ += '"';
    return *this;
  }
  JsonRecord& field(const char* key, const char* v) {
    return field(key, std::string(v));
  }
  JsonRecord& field(const char* key, double v) {
    add_key(key);
    if (!std::isfinite(v)) {
      // JSON has no NaN/Infinity literal; "%.6g" would emit one and make
      // the whole line unparseable.
      body_ += "null";
    } else {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.6g", v);
      body_ += buf;
    }
    return *this;
  }
  JsonRecord& field(const char* key, int v) {
    add_key(key);
    body_ += std::to_string(v);
    return *this;
  }
  JsonRecord& field(const char* key, long v) {
    add_key(key);
    body_ += std::to_string(v);
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void add_key(const char* key) {
    if (!body_.empty()) body_ += ", ";
    body_ += '"';
    body_ += key;
    body_ += "\": ";
  }
  std::string body_;
};

/// Path set by --json; empty = JSON output disabled.
inline std::string& json_output_path() {
  static std::string path;
  return path;
}

/// Removes `--json <path>` / `--json=<path>` from argv and records the path.
inline void strip_json_flag(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < *argc) {
      json_output_path() = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_output_path() = argv[i] + 7;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

/// Appends one record to the --json file (no-op when the flag was not given).
inline void json_append(const JsonRecord& rec) {
  if (json_output_path().empty()) return;
  if (FILE* f = std::fopen(json_output_path().c_str(), "a")) {
    std::fprintf(f, "%s\n", rec.str().c_str());
    std::fclose(f);
  }
}

}  // namespace plu::bench
