// Package sqo is a semantic query optimizer for object-oriented databases,
// reproducing Pang, Lu and Ooi, "An Efficient Semantic Query Optimization
// Algorithm" (ICDE 1991).
//
// Semantic query optimization transforms a query, using the database's
// integrity constraints, into a different query that returns the same answer
// in every legal database state but executes more cheaply. This package
// implements the paper's polynomial-time transformation algorithm — all
// candidate transformations are applied *tentatively* by re-tagging
// predicates (imperative / optional / redundant) in a transformation table,
// and only at the end is the output query formulated — together with every
// substrate the paper's evaluation needs: an OODB storage engine with
// simulated physical I/O, a pointer-traversal query executor, a System-R
// style cost model, Horn-clause constraint catalogs with transitive-closure
// materialization and class-attached grouping, workload generators, and the
// comparison baselines.
//
// # Quick start
//
//	sch := sqo.NewSchemaBuilder().
//		Class("vehicle",
//			sqo.Attribute{Name: "desc", Type: sqo.KindString}).
//		Class("cargo",
//			sqo.Attribute{Name: "desc", Type: sqo.KindString}).
//		Relationship("collects", "vehicle", "cargo", sqo.OneToMany).
//		MustBuild()
//
//	cat := sqo.MustCatalog(
//		sqo.NewConstraint("c1",
//			[]sqo.Predicate{sqo.Eq("vehicle", "desc", sqo.StringValue("refrigerated truck"))},
//			[]string{"collects"},
//			sqo.Eq("cargo", "desc", sqo.StringValue("frozen food"))))
//
//	eng, err := sqo.NewEngine(sch, sqo.WithCatalog(cat), sqo.WithCache(sqo.CacheConfig{Capacity: 1024}))
//	res, err := eng.Optimize(ctx, q)
//
// The Engine (engine_api.go) is the production entry point: a long-lived,
// concurrency-safe handle that compiles the catalog into an interned symbol
// space and an inverted constraint index once per generation, serves
// Optimize/OptimizeBatch under context cancellation, caches results by
// canonical query fingerprint, and mutates constraint catalogs under live
// traffic through one delta path — to a whole new catalog (SwapCatalog) or
// by explicit ops (UpdateCatalog) — in O(|delta|) with surgical cache
// invalidation.
//
// See examples/ for complete programs and DESIGN.md for the system map.
package sqo

import (
	"sqo/internal/closure"
	"sqo/internal/constraint"
	"sqo/internal/core"
	"sqo/internal/costmodel"
	"sqo/internal/datagen"
	"sqo/internal/derive"
	"sqo/internal/engine"
	"sqo/internal/exec"
	"sqo/internal/groups"
	"sqo/internal/index"
	"sqo/internal/pathgen"
	"sqo/internal/predicate"
	"sqo/internal/query"
	"sqo/internal/schema"
	"sqo/internal/storage"
	"sqo/internal/value"
)

// Schema modeling.
type (
	// Schema is a validated object-oriented database schema.
	Schema = schema.Schema
	// SchemaBuilder assembles a Schema; see NewSchemaBuilder.
	SchemaBuilder = schema.Builder
	// Attribute declares one typed attribute of an object class.
	Attribute = schema.Attribute
	// Relationship is a binary association between two classes.
	Relationship = schema.Relationship
	// Cardinality is a relationship's multiplicity (OneToOne, …).
	Cardinality = schema.Cardinality
	// Kind is a primitive value type (KindString, KindInt, …).
	Kind = value.Kind
	// Value is a typed constant used in predicates and instances.
	Value = value.Value
)

// Relationship cardinalities.
const (
	OneToOne   = schema.OneToOne
	OneToMany  = schema.OneToMany
	ManyToOne  = schema.ManyToOne
	ManyToMany = schema.ManyToMany
)

// Value kinds.
const (
	KindString = value.KindString
	KindInt    = value.KindInt
	KindFloat  = value.KindFloat
	KindBool   = value.KindBool
)

// NewSchemaBuilder returns an empty schema builder.
func NewSchemaBuilder() *SchemaBuilder { return schema.NewBuilder() }

// RenderSchema writes a schema in the line-oriented text format
// (`class name(attr: type indexed, …)` / `relationship name: a 1:N b`).
func RenderSchema(s *Schema) string { return schema.Render(s) }

// ParseSchema reads a schema in the text format RenderSchema produces.
func ParseSchema(text string) (*Schema, error) { return schema.Parse(text) }

// StringValue builds a string constant.
func StringValue(s string) Value { return value.String(s) }

// IntValue builds an integer constant.
func IntValue(i int64) Value { return value.Int(i) }

// FloatValue builds a float constant.
func FloatValue(f float64) Value { return value.Float(f) }

// BoolValue builds a boolean constant.
func BoolValue(b bool) Value { return value.Bool(b) }

// ParseValue parses a literal ("42", `"SFI"`, "true") into a Value.
func ParseValue(lit string) (Value, error) { return value.Parse(lit) }

// Queries and predicates.
type (
	// Query is the paper's five-part query form.
	Query = query.Query
	// Predicate compares an attribute with a constant or another attribute.
	Predicate = predicate.Predicate
	// AttrRef names class.attr.
	AttrRef = predicate.AttrRef
	// Op is a comparison operator (OpEQ, OpLT, …).
	Op = predicate.Op
)

// Comparison operators.
const (
	OpEQ = predicate.EQ
	OpNE = predicate.NE
	OpLT = predicate.LT
	OpLE = predicate.LE
	OpGT = predicate.GT
	OpGE = predicate.GE
)

// NewQuery returns an empty query over the given classes.
func NewQuery(classes ...string) *Query { return query.New(classes...) }

// ParseQuery reads the paper's textual query format.
func ParseQuery(input string) (*Query, error) { return query.Parse(input) }

// Sel builds a selective predicate class.attr ⟨op⟩ const.
func Sel(class, attr string, op Op, v Value) Predicate { return predicate.Sel(class, attr, op, v) }

// Eq builds an equality selective predicate.
func Eq(class, attr string, v Value) Predicate { return predicate.Eq(class, attr, v) }

// JoinPred builds a join predicate left.attr ⟨op⟩ right.attr.
func JoinPred(leftClass, leftAttr string, op Op, rightClass, rightAttr string) Predicate {
	return predicate.Join(leftClass, leftAttr, op, rightClass, rightAttr)
}

// Constraints.
type (
	// Constraint is a Horn-clause semantic constraint.
	Constraint = constraint.Constraint
	// Catalog is a deduplicated collection of constraints.
	Catalog = constraint.Catalog
	// ConstraintKind is the intra/inter classification.
	ConstraintKind = constraint.Kind
)

// Constraint classifications.
const (
	Intra = constraint.Intra
	Inter = constraint.Inter
)

// NewConstraint builds a Horn clause: antecedents ∧ links → consequent.
func NewConstraint(id string, antecedents []Predicate, links []string, consequent Predicate) *Constraint {
	return constraint.New(id, antecedents, links, consequent)
}

// NewCatalog builds a constraint catalog, rejecting duplicate IDs.
func NewCatalog(cs ...*Constraint) (*Catalog, error) { return constraint.NewCatalog(cs...) }

// MustCatalog is NewCatalog for statically known constraint sets.
func MustCatalog(cs ...*Constraint) *Catalog { return constraint.MustCatalog(cs...) }

// ParseConstraint reads one constraint in the textual form Constraint.String
// renders, e.g.
//
//	c1: vehicle.desc = "refrigerated truck" [collects] -> cargo.desc = "frozen food"
func ParseConstraint(line string) (*Constraint, error) { return constraint.Parse(line) }

// ParseConstraintCatalog reads a catalog: one constraint per line, blank
// lines and #-comments ignored.
func ParseConstraintCatalog(text string) (*Catalog, error) { return constraint.ParseCatalog(text) }

// ClosureOptions tunes transitive-closure materialization.
type ClosureOptions = closure.Options

// ClosureStats reports what materialization derived.
type ClosureStats = closure.Stats

// MaterializeClosure precomputes the transitive closure of a constraint
// catalog (Section 3 / [YuS89]), returning the closed catalog, the interned
// predicate pool, and statistics.
func MaterializeClosure(cat *Catalog, opts ClosureOptions) (*Catalog, *predicate.Pool, ClosureStats, error) {
	return closure.Materialize(cat, opts)
}

// Constraint grouping (Section 3's retrieval scheme).
type (
	// GroupStore holds class-attached constraint groups.
	GroupStore = groups.Store
	// GroupPolicy selects the constraint-to-class assignment rule.
	GroupPolicy = groups.Policy
	// AccessStats tracks per-class access frequencies.
	AccessStats = groups.AccessStats
)

// Grouping policies.
const (
	GroupArbitrary     = groups.Arbitrary
	GroupLeastAccessed = groups.LeastAccessed
	GroupEvenSpread    = groups.EvenSpread
)

// NewGroupStore distributes a catalog into class-attached groups.
func NewGroupStore(cat *Catalog, policy GroupPolicy, stats *AccessStats) *GroupStore {
	return groups.NewStore(cat, policy, stats)
}

// NewAccessStats returns empty access statistics.
func NewAccessStats() *AccessStats { return groups.NewAccessStats() }

// Indexed constraint retrieval (sublinear in the catalog size).
type (
	// ConstraintIndex is an immutable inverted index over a constraint
	// catalog: class posting lists for applicable-constraint retrieval
	// plus (class, attribute, predicate kind)-keyed postings with
	// operator-interval filtering. Safe for unbounded concurrent use.
	// Engines build one per catalog generation.
	ConstraintIndex = index.Index
	// IndexStats describes the shape of a built ConstraintIndex.
	IndexStats = index.Stats
)

// NewConstraintIndex builds the inverted index over a catalog. The returned
// index retrieves exactly the constraints a linear catalog scan would, in
// the same order, touching only the posting lists of the query's classes.
func NewConstraintIndex(cat *Catalog) *ConstraintIndex { return index.New(cat) }

// The optimizer (the paper's contribution).
type (
	// Options configures the optimizer an Engine runs (WithOptimizerOptions).
	Options = core.Options
	// Result is one optimization outcome: query, tags, trace, stats.
	Result = core.Result
	// Tag classifies a predicate (TagImperative, TagOptional, TagRedundant).
	Tag = core.Tag
	// RuleSet selects active transformation rules.
	RuleSet = core.RuleSet
	// Transformation is one trace entry.
	Transformation = core.Transformation
	// CostModelInterface is what formulation needs from a cost model.
	CostModelInterface = core.CostModel
	// HeuristicCost is the statistics-free fallback cost model.
	HeuristicCost = core.HeuristicCost
)

// Predicate tags.
const (
	TagRedundant  = core.TagRedundant
	TagOptional   = core.TagOptional
	TagImperative = core.TagImperative
)

// Transformation rules.
const (
	RuleElimination      = core.RuleElimination
	RuleIntroduction     = core.RuleIntroduction
	RuleClassElimination = core.RuleClassElimination
	AllRules             = core.AllRules
)

// Storage, execution and costing substrate.
type (
	// Database is the in-memory OODB instance store.
	Database = storage.Database
	// OID identifies an instance within its class extent.
	OID = storage.OID
	// Instance is one stored object: its OID plus attribute values in
	// schema order (Database.Scan hands these out).
	Instance = storage.Instance
	// Meter accumulates simulated physical I/O events.
	Meter = storage.Meter
	// Stats is a database statistics snapshot.
	Stats = storage.Stats
	// Executor plans and runs queries over a Database.
	Executor = engine.Executor
	// ExecResult is an executed query's rows, plan, metered cost and
	// tuples-scanned count.
	ExecResult = engine.Result
	// Row is one projected result tuple.
	Row = engine.Row
	// Execution is an end-to-end run's rows, plan, meter, tuples-scanned
	// count and (when optimize-then-execute produced it) the optimization.
	Execution = exec.Result
	// Plan is an executor query plan.
	Plan = engine.Plan
	// CostWeights prices metered events into cost units.
	CostWeights = engine.CostWeights
	// CostModel estimates query costs from statistics; it implements
	// CostModelInterface.
	CostModel = costmodel.Model
)

// DefaultWeights is the experiment harness's cost calibration.
var DefaultWeights = engine.DefaultWeights

// NewDatabase creates an empty database for the schema.
func NewDatabase(s *Schema) *Database { return storage.NewDatabase(s) }

// DumpDatabase serializes a database (schema text plus instance and link
// data) as deterministic JSON.
func DumpDatabase(db *Database) ([]byte, error) { return storage.Dump(db) }

// LoadDatabase rebuilds a database from DumpDatabase output.
func LoadDatabase(data []byte) (*Database, error) { return storage.Load(data) }

// NewExecutor builds a query executor over the database.
func NewExecutor(db *Database) *Executor { return engine.New(db) }

// NewCostModel builds a statistics-driven cost model.
func NewCostModel(s *Schema, stats *Stats, w CostWeights) *CostModel {
	return costmodel.New(s, stats, w)
}

// CheckConstraint counts violations of a constraint in a database.
func CheckConstraint(db *Database, c *Constraint) (int, error) {
	return engine.CheckConstraint(db, c)
}

// CheckCatalog returns the ID of the first violated constraint, or "".
func CheckCatalog(db *Database, cat *Catalog) (string, error) {
	return engine.CheckCatalog(db, cat)
}

// Evaluation world: the paper's logistics database and path workload.
type (
	// DBConfig sizes one generated database instance.
	DBConfig = datagen.Config
	// WorkloadOptions tunes path-query generation.
	WorkloadOptions = pathgen.Options
	// WorkloadGenerator builds path queries over a database.
	WorkloadGenerator = pathgen.Generator
	// SchemaPath is a simple path through the schema graph.
	SchemaPath = pathgen.Path
)

// LogisticsSchema returns the evaluation schema (Figure 2.1 flavored).
func LogisticsSchema() *Schema { return datagen.Schema() }

// LogisticsConstraints returns the evaluation constraint catalog.
func LogisticsConstraints() *Catalog { return datagen.Constraints() }

// DB1 through DB4 are the Table 4.1 database configurations.
func DB1() DBConfig { return datagen.DB1() }

// DB2 doubles DB1.
func DB2() DBConfig { return datagen.DB2() }

// DB3 doubles DB2.
func DB3() DBConfig { return datagen.DB3() }

// DB4 keeps DB3's class cardinalities with twice the links.
func DB4() DBConfig { return datagen.DB4() }

// DBConfigs returns all four Table 4.1 configurations.
func DBConfigs() []DBConfig { return datagen.DBConfigs() }

// GenerateDatabase populates a constraint-satisfying database instance.
func GenerateDatabase(cfg DBConfig) (*Database, error) { return datagen.Generate(cfg) }

// ScaledConfig sizes a synthetic large-catalog world (10²–10⁴ constraints).
type ScaledConfig = datagen.ScaledConfig

// GenerateScaledWorld builds a wide chain schema plus a seeded constraint
// catalog of cfg.Constraints rules — the evaluation world for catalog sizes
// far past the paper's 17.
func GenerateScaledWorld(cfg ScaledConfig) (*Schema, *Catalog, error) {
	return datagen.GenerateScaled(cfg)
}

// ScaledWorkload generates count distinct, deterministic path queries over a
// scaled world, seeded with relevant constraint antecedents so semantic
// transformations fire.
func ScaledWorkload(sch *Schema, cat *Catalog, count int, seed int64) ([]*Query, error) {
	return datagen.ScaledWorkload(sch, cat, count, seed)
}

// ScaledDBConfig sizes the populated database instance of a scaled world.
type ScaledDBConfig = datagen.ScaledDBConfig

// GenerateScaledDatabase populates a database for a scaled world that
// satisfies every constraint of its catalog, so end-to-end execution runs at
// 10²–10⁴ rules, not only over the logistics schema.
func GenerateScaledDatabase(sch *Schema, cat *Catalog, cfg ScaledDBConfig) (*Database, error) {
	return datagen.GenerateScaledDatabase(sch, cat, cfg)
}

// EnumerateSchemaPaths lists every simple path of the schema graph.
func EnumerateSchemaPaths(s *Schema) []SchemaPath { return pathgen.EnumeratePaths(s) }

// NewWorkloadGenerator prepares a path-query generator over a database.
func NewWorkloadGenerator(db *Database, cat *Catalog, opts WorkloadOptions) *WorkloadGenerator {
	return pathgen.NewGenerator(db, cat, opts)
}

// DeriveOptions bounds state-rule discovery (the Siegel [Sie88] extension).
type DeriveOptions = derive.Options

// DeriveRules scans the current database state and returns Horn rules that
// hold in it (functional pairs, numeric bounds, link-implied values), marked
// StateDependent. They feed the same optimizer as declared constraints but
// must be discarded when the data changes.
func DeriveRules(db *Database, opts DeriveOptions) (*Catalog, error) {
	return derive.Rules(db, opts)
}

// MergeCatalogs combines declared constraints with derived state rules,
// absorbing logical duplicates.
func MergeCatalogs(declared, derived *Catalog) (*Catalog, error) {
	return derive.Merge(declared, derived)
}
