// geosir_cli: a batch-mode rendition of the GeoSIR prototype (Section 6).
//
// Reads commands from stdin (or a file passed as argv[1]) and prints
// results to stdout. The command language covers the prototype's
// workflow: defining shapes, loading them into images, and querying —
// by similarity (envelope matcher with hashing fallback) or with the
// Section 5 topological algebra.
//
// Commands:
//   shape NAME x1 y1 x2 y2 ...        define a closed polygon
//   polyline NAME x1 y1 x2 y2 ...     define an open polyline
//   image NAME SHAPE [SHAPE...]       add an image holding those shapes
//   finalize                          build indexes (required before queries)
//   match NAME [k]                    k-best similarity matches for a shape
//   query EXPRESSION                  topological query, e.g.
//                                     similar(a) & ~overlap(b, c, any)
//   stats                             base statistics
//
// Example session:
//   shape tri 0 0 4 0 2 3
//   shape sq 0 0 2 0 2 2 0 2
//   image i1 tri sq
//   finalize
//   match tri 2
//   query similar(tri)

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/envelope_matcher.h"
#include "hashing/geo_hash_index.h"
#include "query/parser.h"
#include "query/planner.h"

using geosir::geom::Point;
using geosir::geom::Polyline;

namespace {

class GeoSirCli {
 public:
  int Run(std::istream& in) {
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      if (!Dispatch(line)) return 1;
    }
    return 0;
  }

 private:
  bool Dispatch(const std::string& line) {
    std::istringstream ss(line);
    std::string command;
    ss >> command;
    if (command == "shape" || command == "polyline") {
      return DefineShape(&ss, command == "shape");
    }
    if (command == "image") return AddImage(&ss);
    if (command == "finalize") return Finalize();
    if (command == "match") return MatchShape(&ss);
    if (command == "query") return RunQuery(line.substr(6));
    if (command == "stats") return PrintStats();
    std::printf("error: unknown command '%s'\n", command.c_str());
    return false;
  }

  bool DefineShape(std::istringstream* ss, bool closed) {
    std::string name;
    *ss >> name;
    std::vector<Point> vertices;
    double x, y;
    while (*ss >> x >> y) vertices.push_back({x, y});
    if (name.empty() || vertices.size() < 2) {
      std::printf("error: shape needs a name and >= 2 vertices\n");
      return false;
    }
    shapes_[name] = Polyline(std::move(vertices), closed);
    std::printf("shape %s: %zu vertices (%s)\n", name.c_str(),
                shapes_[name].size(), closed ? "closed" : "open");
    return true;
  }

  bool AddImage(std::istringstream* ss) {
    if (finalized_) {
      std::printf("error: base already finalized\n");
      return false;
    }
    std::string image_name;
    *ss >> image_name;
    std::vector<Polyline> boundaries;
    std::string shape_name;
    while (*ss >> shape_name) {
      const auto it = shapes_.find(shape_name);
      if (it == shapes_.end()) {
        std::printf("error: unknown shape '%s'\n", shape_name.c_str());
        return false;
      }
      boundaries.push_back(it->second);
    }
    size_t skipped = 0;
    auto id = images_.AddImage(boundaries, image_name, &skipped);
    if (!id.ok()) {
      std::printf("error: %s\n", id.status().ToString().c_str());
      return false;
    }
    std::printf("image %s: id %u, %zu shapes (%zu skipped)\n",
                image_name.c_str(), *id, boundaries.size() - skipped,
                skipped);
    return true;
  }

  bool Finalize() {
    if (auto st = images_.Finalize(); !st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
      return false;
    }
    finalized_ = true;
    matcher_ = std::make_unique<geosir::core::EnvelopeMatcher>(
        &images_.shape_base());
    auto hash = geosir::hashing::GeoHashIndex::Create(&images_.shape_base());
    if (!hash.ok()) {
      std::printf("error: %s\n", hash.status().ToString().c_str());
      return false;
    }
    hash_ = std::make_unique<geosir::hashing::GeoHashIndex>(std::move(*hash));
    context_ = std::make_unique<geosir::query::QueryContext>(&images_);
    std::printf("finalized: %zu images, %zu shapes, %zu copies\n",
                images_.NumImages(), images_.shape_base().NumShapes(),
                images_.shape_base().NumCopies());
    return true;
  }

  bool MatchShape(std::istringstream* ss) {
    if (!finalized_) {
      std::printf("error: finalize first\n");
      return false;
    }
    std::string name;
    size_t k = 1;
    *ss >> name >> k;
    k = std::max<size_t>(k, 1);
    const auto it = shapes_.find(name);
    if (it == shapes_.end()) {
      std::printf("error: unknown shape '%s'\n", name.c_str());
      return false;
    }
    geosir::core::MatchOptions options;
    options.k = k;
    auto results = matcher_->Match(it->second, options);
    if (!results.ok()) {
      std::printf("error: %s\n", results.status().ToString().c_str());
      return false;
    }
    const char* via = "matcher";
    std::vector<geosir::core::MatchResult> matches = *results;
    if (matches.empty()) {
      geosir::hashing::GeoHashCandidateSource source(hash_.get());
      auto approx = matcher_->MatchCandidates(it->second, &source, options);
      if (approx.ok()) {
        matches = *approx;
        via = "hashing";
      }
    }
    std::printf("match %s (via %s): %zu results\n", name.c_str(), via,
                matches.size());
    for (size_t i = 0; i < matches.size(); ++i) {
      const auto& shape = images_.shape_base().shape(matches[i].shape_id);
      std::printf("  #%zu shape %u (image %s) distance %.5f\n", i + 1,
                  matches[i].shape_id,
                  shape.image == geosir::core::kNoImage
                      ? "-"
                      : images_.image(shape.image).name.c_str(),
                  matches[i].distance);
    }
    return true;
  }

  bool RunQuery(const std::string& expression) {
    if (!finalized_) {
      std::printf("error: finalize first\n");
      return false;
    }
    auto parsed = geosir::query::ParseQuery(expression, shapes_);
    if (!parsed.ok()) {
      std::printf("error: %s\n", parsed.status().ToString().c_str());
      return false;
    }
    geosir::query::PlanExplanation plan;
    auto result =
        geosir::query::ExecuteQuery(**parsed, context_.get(), {}, &plan);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return false;
    }
    std::printf("query %s -> %zu images:", ToString(**parsed).c_str(),
                result->size());
    for (auto id : *result) {
      std::printf(" %s", images_.image(id).name.c_str());
    }
    std::printf("\n");
    return true;
  }

  bool PrintStats() {
    std::printf("shapes defined: %zu; images: %zu; finalized: %s\n",
                shapes_.size(), images_.NumImages(),
                finalized_ ? "yes" : "no");
    if (finalized_) {
      std::printf("stored copies: %zu, pooled vertices: %zu\n",
                  images_.shape_base().NumCopies(),
                  images_.shape_base().NumVertices());
    }
    return true;
  }

  std::map<std::string, Polyline> shapes_;
  geosir::query::ImageBase images_;
  bool finalized_ = false;
  std::unique_ptr<geosir::core::EnvelopeMatcher> matcher_;
  std::unique_ptr<geosir::hashing::GeoHashIndex> hash_;
  std::unique_ptr<geosir::query::QueryContext> context_;
};

}  // namespace

int main(int argc, char** argv) {
  GeoSirCli cli;
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    return cli.Run(file);
  }
  return cli.Run(std::cin);
}
