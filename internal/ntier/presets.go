package ntier

import (
	"time"

	"ctqosim/internal/simnet"
)

// Paper configuration constants (Sections III–V and Appendix A). The
// synchronous tiers' accept queues are the paper's kernel's,
// simnet.RHEL6.Backlog (128).
const (
	// ApacheThreads is the web-tier worker pool (MaxSysQDepth(Apache) =
	// 150+128 = 278).
	ApacheThreads = 150
	// ApacheSpareThreads is the second httpd process that raises
	// MaxSysQDepth(Apache) to 428 under sustained saturation (Fig. 3b).
	ApacheSpareThreads = 150

	// TomcatThreads is the app-tier pool (MaxSysQDepth(Tomcat) = 165+128 =
	// 293, Fig. 7b).
	TomcatThreads = 165
	// MySQLThreads is the db-tier pool (MaxSysQDepth(MySQL) = 100+128 =
	// 228, Figs. 8b/9b).
	MySQLThreads = 100
	// JDBCPoolSize is Tomcat's connection pool to MySQL; in the fully
	// synchronous system it caps MySQL's effective queue at ~50.
	JDBCPoolSize = 50

	// NginxWorkers is the web tier's event-loop worker count.
	NginxWorkers = 4
	// XTomcatWorkers is the app tier's event-loop worker count.
	XTomcatWorkers = 8
	// InnoDBThreads is XMySQL's innodb_thread_concurrency.
	InnoDBThreads = 8

	// WebLiteQDepth is LiteQDepth(Nginx)/LiteQDepth(XTomcat): all
	// ephemeral port numbers.
	WebLiteQDepth = 65535
	// InnoDBLiteQDepth is XMySQL's lightweight wait queue.
	InnoDBLiteQDepth = 2000
)

// NX is the paper's count of asynchronous tiers, 0 through 3.
type NX int

// The four evaluated configurations.
const (
	// NX0 is Apache-Tomcat-MySQL.
	NX0 NX = 0
	// NX1 is Nginx-Tomcat-MySQL (Section V-B).
	NX1 NX = 1
	// NX2 is Nginx-XTomcat-MySQL (Section V-C).
	NX2 NX = 2
	// NX3 is Nginx-XTomcat-XMySQL (Section V-D).
	NX3 NX = 3
)

// String implements fmt.Stringer.
func (n NX) String() string {
	switch n {
	case NX0:
		return "Apache-Tomcat-MySQL"
	case NX1:
		return "Nginx-Tomcat-MySQL"
	case NX2:
		return "Nginx-XTomcat-MySQL"
	case NX3:
		return "Nginx-XTomcat-XMySQL"
	default:
		return "invalid"
	}
}

// apacheTier returns the synchronous web tier.
func apacheTier() TierSpec {
	return TierSpec{
		Name:         "apache",
		Arch:         Sync,
		Threads:      ApacheThreads,
		Backlog:      simnet.RHEL6.Backlog,
		SpareThreads: ApacheSpareThreads,
		SpareAfter:   3 * time.Second,
	}
}

// nginxTier returns the asynchronous web tier.
func nginxTier() TierSpec {
	return TierSpec{
		Name:       "nginx",
		Arch:       Async,
		Threads:    NginxWorkers,
		LiteQDepth: WebLiteQDepth,
	}
}

// tomcatTier returns the synchronous app tier.
func tomcatTier() TierSpec {
	return TierSpec{
		Name:    "tomcat",
		Arch:    Sync,
		Threads: TomcatThreads,
		Backlog: simnet.RHEL6.Backlog,
	}
}

// xtomcatTier returns the asynchronous app tier.
func xtomcatTier() TierSpec {
	return TierSpec{
		Name:       "xtomcat",
		Arch:       Async,
		Threads:    XTomcatWorkers,
		LiteQDepth: WebLiteQDepth,
	}
}

// mysqlTier returns the synchronous db tier.
func mysqlTier() TierSpec {
	return TierSpec{
		Name:    "mysql",
		Arch:    Sync,
		Threads: MySQLThreads,
		Backlog: simnet.RHEL6.Backlog,
	}
}

// xmysqlTier returns the asynchronous db tier (InnoDB lightweight queue).
func xmysqlTier() TierSpec {
	return TierSpec{
		Name:       "xmysql",
		Arch:       Async,
		Threads:    InnoDBThreads,
		LiteQDepth: InnoDBLiteQDepth,
	}
}

// Spec returns the paper's system configuration at the given NX level,
// named sysName.
func Spec(sysName string, level NX) SystemSpec {
	spec := SystemSpec{Name: sysName}
	switch level {
	case NX1:
		spec.Web, spec.App, spec.DB = nginxTier(), tomcatTier(), mysqlTier()
		spec.DBConnPool = JDBCPoolSize
	case NX2:
		// XTomcat uses the asynchronous MySQL connector: no bounded JDBC
		// pool, so MySQL's own MaxSysQDepth (228) is the effective bound.
		spec.Web, spec.App, spec.DB = nginxTier(), xtomcatTier(), mysqlTier()
	case NX3:
		spec.Web, spec.App, spec.DB = nginxTier(), xtomcatTier(), xmysqlTier()
	case NX0:
		fallthrough
	default:
		spec.Web, spec.App, spec.DB = apacheTier(), tomcatTier(), mysqlTier()
		spec.DBConnPool = JDBCPoolSize
	}
	return spec
}

// BurstySpec returns the SysBursty co-tenant of the consolidation
// experiments: a small synchronous 3-tier system with queues generous
// enough that its own batches never drop — its only role is to saturate
// whichever shared node hosts the tier named by sharedTier ("mysql" places
// SysBursty-MySQL on sharedNode, as in Fig. 2).
func BurstySpec(sysName, sharedTier, sharedNode string) SystemSpec {
	big := func(name string) TierSpec {
		t := TierSpec{
			Name:    name,
			Arch:    Sync,
			Threads: 1000,
			Backlog: 1000,
		}
		if name == sharedTier {
			t.Node = sharedNode
		}
		return t
	}
	return SystemSpec{
		Name: sysName,
		Web:  big("apache"),
		App:  big("tomcat"),
		DB:   big("mysql"),
	}
}
