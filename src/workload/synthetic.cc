#include "workload/synthetic.h"

#include <algorithm>

#include "common/string_util.h"

namespace cqms::workload {

namespace {

using db::ColumnDef;
using db::TableSchema;
using db::Value;
using db::ValueType;

const char* kLakes[] = {"Washington", "Union",    "Sammamish", "Chelan",
                        "Crescent",   "Whatcom",  "Ozette",    "Quinault"};
const char* kCities[] = {"Seattle",  "Bellevue", "Tacoma",  "Spokane",
                         "Everett",  "Olympia",  "Detroit", "Chicago"};
const char* kStates[] = {"WA", "WA", "WA", "WA", "WA", "WA", "MI", "IL"};
const char* kSpecies[] = {"salmon", "trout", "perch", "bass", "sturgeon"};
const char* kSensorKinds[] = {"temp", "salinity", "ph", "turbidity"};

/// State of one in-flight exploration session. Each template tracks its
/// own mutable parameters; Render() produces the current SQL text.
class SessionState {
 public:
  enum class Template {
    kCorrelate,   ///< Figure-2 style: temp/salinity correlation.
    kAggregate,   ///< Per-lake aggregates with HAVING refinement.
    kCityLookup,  ///< City filter with constant tweaks.
    kSensors,     ///< Sensors x Readings join exploration.
    kSpecies,     ///< Species counts with IN-list refinement.
  };
  static constexpr size_t kNumTemplates = 5;

  SessionState(Template t, Rng* rng) : template_(t), rng_(rng) {
    temp_threshold_ = rng_->UniformInt(8, 25);
    pop_threshold_ = rng_->UniformInt(1, 8) * 100000;
    value_threshold_ = rng_->UniformInt(2, 40);
    state_ = kStates[rng_->Uniform(8)];
    species_count_ = 1;
  }

  /// Applies one random evolution step; mirrors the edit kinds of the
  /// paper's Figure 2 (tweak constant, add table, add predicate, change
  /// projection, add order/limit).
  void Mutate() {
    switch (rng_->Uniform(5)) {
      case 0:  // tweak the main constant
        temp_threshold_ += rng_->UniformInt(-4, 4);
        value_threshold_ += rng_->UniformInt(-5, 5);
        pop_threshold_ += rng_->UniformInt(-2, 2) * 50000;
        if (pop_threshold_ < 0) pop_threshold_ = 100000;
        break;
      case 1:
        stage_ = std::min<int>(stage_ + 1, 3);  // structural growth
        break;
      case 2:
        narrow_projection_ = !narrow_projection_;
        break;
      case 3:
        with_order_ = true;
        limit_ = 10 * rng_->UniformInt(1, 5);
        break;
      case 4:
        if (template_ == Template::kSpecies) {
          species_count_ = std::min<size_t>(species_count_ + 1, 4);
        } else {
          stage_ = std::min<int>(stage_ + 1, 3);
        }
        break;
    }
  }

  std::string Render() const {
    std::string sql;
    switch (template_) {
      case Template::kCorrelate: {
        sql = narrow_projection_
                  ? "SELECT T.lake, T.temp, S.salinity FROM WaterTemp T"
                  : "SELECT * FROM WaterTemp T";
        if (stage_ >= 1) sql += ", WaterSalinity S";
        sql += " WHERE T.temp < " + std::to_string(temp_threshold_);
        if (stage_ >= 2) sql += " AND S.loc_x = T.loc_x AND S.loc_y = T.loc_y";
        if (stage_ >= 3) sql += " AND S.salinity > 0.1";
        if (stage_ < 1) {
          // Without WaterSalinity the projection must not mention S.
          sql = narrow_projection_ ? "SELECT T.lake, T.temp FROM WaterTemp T"
                                   : "SELECT * FROM WaterTemp T";
          sql += " WHERE T.temp < " + std::to_string(temp_threshold_);
        }
        break;
      }
      case Template::kAggregate: {
        sql = "SELECT lake, AVG(temp) AS avg_temp, COUNT(*) AS n FROM WaterTemp";
        sql += " WHERE temp > " + std::to_string(temp_threshold_ - 10);
        sql += " GROUP BY lake";
        if (stage_ >= 1) sql += " HAVING COUNT(*) > " + std::to_string(stage_);
        if (with_order_) sql += " ORDER BY avg_temp DESC";
        break;
      }
      case Template::kCityLookup: {
        sql = narrow_projection_ ? "SELECT city FROM CityLocations"
                                 : "SELECT * FROM CityLocations";
        sql += " WHERE state = '" + state_ + "'";
        if (stage_ >= 1) sql += " AND pop > " + std::to_string(pop_threshold_);
        if (with_order_) sql += " ORDER BY pop DESC";
        break;
      }
      case Template::kSensors: {
        sql = "SELECT R.ts, R.value FROM Sensors N, Readings R"
              " WHERE N.sensor_id = R.sensor_id";
        if (stage_ >= 1) sql += " AND N.kind = 'temp'";
        if (stage_ >= 2) {
          sql += " AND R.value < " + std::to_string(value_threshold_);
        }
        if (stage_ >= 3) sql += " AND N.lake = 'Washington'";
        break;
      }
      case Template::kSpecies: {
        sql = "SELECT lake, SUM(count_obs) AS total FROM Species WHERE species IN (";
        for (size_t i = 0; i < species_count_; ++i) {
          if (i > 0) sql += ", ";
          sql += std::string("'") + kSpecies[i] + "'";
        }
        sql += ") GROUP BY lake";
        if (stage_ >= 1) sql += " HAVING SUM(count_obs) > 10";
        break;
      }
    }
    if (limit_ > 0 && template_ != Template::kAggregate) {
      sql += " LIMIT " + std::to_string(limit_);
    }
    return sql;
  }

  /// Renders a typo'd variant (misspelled table or column).
  std::string RenderTypo() const {
    std::string sql = Render();
    // Damage the first table-ish identifier we find.
    for (const char* victim : {"WaterTemp", "WaterSalinity", "CityLocations",
                               "Readings", "Species", "Sensors"}) {
      size_t pos = sql.find(victim);
      if (pos != std::string::npos) {
        sql.erase(pos + 2, 1);  // drop a letter: "WaterTemp" -> "Wtertemp"-ish
        return sql;
      }
    }
    return sql + " WHERRE 1 = 1";  // fallback: parse error
  }

 private:
  Template template_;
  Rng* rng_;
  int stage_ = 0;
  bool narrow_projection_ = false;
  bool with_order_ = false;
  int64_t limit_ = 0;
  int64_t temp_threshold_ = 18;
  int64_t pop_threshold_ = 300000;
  int64_t value_threshold_ = 20;
  std::string state_;
  size_t species_count_ = 1;
};

}  // namespace

std::string UserName(size_t i) { return "user" + std::to_string(i); }

Status PopulateLakeDatabase(db::Database* database, size_t rows_per_table,
                            uint64_t seed) {
  Rng rng(seed);
  CQMS_RETURN_IF_ERROR(database->CreateTable(TableSchema(
      "WaterTemp", {{"lake", ValueType::kString},
                    {"loc_x", ValueType::kInt},
                    {"loc_y", ValueType::kInt},
                    {"temp", ValueType::kDouble}})));
  CQMS_RETURN_IF_ERROR(database->CreateTable(TableSchema(
      "WaterSalinity", {{"lake", ValueType::kString},
                        {"loc_x", ValueType::kInt},
                        {"loc_y", ValueType::kInt},
                        {"salinity", ValueType::kDouble}})));
  CQMS_RETURN_IF_ERROR(database->CreateTable(
      TableSchema("CityLocations", {{"city", ValueType::kString},
                                    {"state", ValueType::kString},
                                    {"pop", ValueType::kInt}})));
  CQMS_RETURN_IF_ERROR(database->CreateTable(
      TableSchema("Sensors", {{"sensor_id", ValueType::kInt},
                              {"lake", ValueType::kString},
                              {"kind", ValueType::kString}})));
  CQMS_RETURN_IF_ERROR(database->CreateTable(
      TableSchema("Readings", {{"sensor_id", ValueType::kInt},
                               {"ts", ValueType::kInt},
                               {"value", ValueType::kDouble}})));
  CQMS_RETURN_IF_ERROR(database->CreateTable(
      TableSchema("Species", {{"lake", ValueType::kString},
                              {"species", ValueType::kString},
                              {"count_obs", ValueType::kInt}})));

  for (size_t i = 0; i < rows_per_table; ++i) {
    int64_t x = rng.UniformInt(0, 63);
    int64_t y = rng.UniformInt(0, 63);
    const char* lake = kLakes[rng.Uniform(8)];
    CQMS_RETURN_IF_ERROR(database->Insert(
        "WaterTemp", {Value::String(lake), Value::Int(x), Value::Int(y),
                      Value::Double(5.0 + rng.UniformDouble() * 22.0)}));
    CQMS_RETURN_IF_ERROR(database->Insert(
        "WaterSalinity", {Value::String(kLakes[rng.Uniform(8)]), Value::Int(x),
                          Value::Int(y),
                          Value::Double(rng.UniformDouble() * 0.9)}));
    CQMS_RETURN_IF_ERROR(database->Insert(
        "Readings", {Value::Int(static_cast<int64_t>(rng.Uniform(64))),
                     Value::Int(static_cast<int64_t>(i)),
                     Value::Double(rng.UniformDouble() * 45.0)}));
  }
  for (size_t i = 0; i < 8; ++i) {
    CQMS_RETURN_IF_ERROR(database->Insert(
        "CityLocations",
        {Value::String(kCities[i]), Value::String(kStates[i]),
         Value::Int(rng.UniformInt(50000, 900000))}));
  }
  for (int64_t s = 0; s < 64; ++s) {
    CQMS_RETURN_IF_ERROR(database->Insert(
        "Sensors", {Value::Int(s), Value::String(kLakes[rng.Uniform(8)]),
                    Value::String(kSensorKinds[rng.Uniform(4)])}));
  }
  for (const char* lake : kLakes) {
    for (const char* species : kSpecies) {
      CQMS_RETURN_IF_ERROR(database->Insert(
          "Species", {Value::String(lake), Value::String(species),
                      Value::Int(rng.UniformInt(0, 40))}));
    }
  }
  return Status::Ok();
}

void RegisterUsers(storage::QueryStore* store, const WorkloadOptions& options) {
  for (size_t u = 0; u < options.num_users; ++u) {
    size_t group = u % std::max<size_t>(1, options.num_groups);
    store->AddUser(UserName(u), {"lab" + std::to_string(group)});
  }
}

GroundTruth GenerateLog(profiler::QueryProfiler* profiler,
                        storage::QueryStore* store, SimulatedClock* clock,
                        const WorkloadOptions& options) {
  Rng rng(options.seed);
  GroundTruth truth;

  const char* kAnnotations[] = {
      "correlating salinity with temperature",
      "checking sensor calibration drift",
      "baseline counts for the field report",
      "outlier hunt after the storm event",
  };

  for (size_t s = 0; s < options.num_sessions; ++s) {
    size_t user_idx = rng.Uniform(options.num_users);
    std::string user = UserName(user_idx);
    auto template_id = static_cast<SessionState::Template>(
        rng.Zipf(SessionState::kNumTemplates, options.template_skew));
    SessionState state(template_id, &rng);

    size_t length = static_cast<size_t>(rng.UniformInt(
        static_cast<int64_t>(options.min_session_length),
        static_cast<int64_t>(options.max_session_length)));
    std::vector<storage::QueryId> session_ids;

    for (size_t q = 0; q < length; ++q) {
      bool typo = rng.Bernoulli(options.typo_rate);
      std::string sql = typo ? state.RenderTypo() : state.Render();
      profiler::ProfiledExecution result = profiler->ExecuteAndProfile(sql, user);
      storage::QueryId id = result.query_id;
      if (!result.stats.succeeded) ++truth.typos_generated;
      ++truth.queries_generated;
      if (id != storage::kInvalidQueryId) {
        session_ids.push_back(id);
        truth.session_of[id] = s;
        if (result.stats.succeeded && rng.Bernoulli(options.annotation_rate)) {
          storage::Annotation note;
          note.author = user;
          note.timestamp = clock->Now();
          note.text = kAnnotations[rng.Uniform(4)];
          Status st = store->Annotate(id, std::move(note));
          (void)st;
        }
      }
      clock->Advance(rng.UniformInt(options.min_think_time,
                                    options.max_think_time));
      if (!typo) state.Mutate();
    }
    truth.sessions.push_back(std::move(session_ids));
    clock->Advance(options.session_gap +
                   rng.UniformInt(0, options.session_gap));
  }
  return truth;
}

}  // namespace cqms::workload
